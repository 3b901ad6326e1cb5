"""Capture the golden flood dissemination trace.

Writes ``golden_protocol_dissemination.json`` next to this script: the
structural round-by-round forwarding trace of a flooded broadcast over a
3-cycle H-graph (via :func:`repro.overlay.gossip.dissemination_trace`).  The
committed file was captured at commit 9967c2e (the pre-PR-2 protocol path) and
is independent of Python's hash randomisation, so it replays byte-identically
on any interpreter.

Regenerate deliberately with::

    PYTHONPATH=src python tests/golden/capture_protocol_golden.py
"""

import json
import os
import random

from repro.overlay.gossip import dissemination_trace
from repro.overlay.hgraph import HGraph

HERE = os.path.dirname(os.path.abspath(__file__))
DISSEMINATION_PATH = os.path.join(HERE, "golden_protocol_dissemination.json")

GRAPH_SEED = 5
GRAPH_VERTICES = 27
GRAPH_CYCLES = 3
MESSAGE_ID = "gm-golden-1"


def capture_dissemination() -> dict:
    graph = HGraph.random(
        [f"g{i}" for i in range(GRAPH_VERTICES)], GRAPH_CYCLES, random.Random(GRAPH_SEED)
    )
    return {
        "graph_seed": GRAPH_SEED,
        "vertices": GRAPH_VERTICES,
        "cycles": GRAPH_CYCLES,
        "message_id": MESSAGE_ID,
        "flood": dissemination_trace(graph, "g0", "flood", message_id=MESSAGE_ID),
    }


def main() -> None:
    dissemination = capture_dissemination()
    with open(DISSEMINATION_PATH, "w", encoding="utf-8") as fh:
        json.dump(dissemination, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DISSEMINATION_PATH} (flood rounds={len(dissemination['flood'])})")


if __name__ == "__main__":
    main()
