"""Compare two `stack` suite reports: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  One row per (workload, end-to-end metric) with
both medians, the ratio B/A *with its base*, the metric's bound and a verdict:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- not regressed, but one side's own repeats spread (the
  distance between their quartiles over their median) wider than the bound,
  so "unchanged" cannot be claimed;
* ``ok``         -- neither.

A second table says, per workload, whether the exact fingerprint (event and
message counts, the whole latency sample) is identical: a change that only
speeds the host up must leave it so.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402


def verdict(base: dict, cand: dict, better: str, bound: float) -> str:
    a, b = base["value"], cand["value"]
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "regressed"
    spread = max(m["iqr"] / m["value"] for m in (base, cand))
    return "unresolved" if spread > bound else "ok"


def compare(base: dict, cand: dict) -> int:
    regressed = 0
    print(f"{'workload':<18}{'metric':<20}{'A':>14}{'B':>14}  {'B/A':<36}{'bound':>7}  verdict")
    for workload, _ in spec.WORKLOADS:
        for metric, unit, better, bound in spec.END_TO_END:
            a = base["workloads"][workload]["end_to_end"][metric]
            b = cand["workloads"][workload]["end_to_end"][metric]
            outcome = verdict(a, b, better, bound)
            regressed += outcome == "regressed"
            ratio = f"{b['value'] / a['value']:.4f} x A ({a['value']:.6g} {unit})"
            print(f"{workload:<18}{metric:<20}{a['value']:>14.6g}{b['value']:>14.6g}"
                  f"  {ratio:<36}{bound:>7.3f}  {outcome}")
    print()
    for workload, _ in spec.WORKLOADS:
        same = (base["workloads"][workload]["fingerprint"]
                == cand["workloads"][workload]["fingerprint"])
        print(f"{workload:<18}simulated outcome {'identical' if same else 'DIFFERS'}")
    return 1 if regressed else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(path).read_text()) for path in argv)
    return compare(base, cand)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
