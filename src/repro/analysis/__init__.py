"""Analysis helpers used by the benchmark harness and tests.

* :mod:`repro.analysis.robustness` -- the binomial vgroup-robustness analysis
  of paper section 3.1 (probability that a vgroup, and all vgroups, stay
  robust given a node-failure probability), plus a Monte-Carlo cross-check.
* :mod:`repro.analysis.cdf` -- latency percentiles and summaries used for
  Figure 8.
* :mod:`repro.analysis.tables` -- plain-text table formatting for benchmark
  output (the "rows the paper reports").
"""

from repro.analysis.robustness import (
    vgroup_failure_probability,
    all_vgroups_robust_probability,
    monte_carlo_vgroup_failure,
    optimal_group_size_table,
)
from repro.analysis.cdf import latency_summary
from repro.analysis.tables import format_table

__all__ = [
    "vgroup_failure_probability",
    "all_vgroups_robust_probability",
    "monte_carlo_vgroup_failure",
    "optimal_group_size_table",
    "latency_summary",
    "format_table",
]
