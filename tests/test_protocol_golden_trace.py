"""Golden-trace determinism test for the gossip forward decision.

``golden_protocol_dissemination.json`` holds the structural round-by-round
``flood`` forwarding over a 3-cycle H-graph, captured on the PRE-optimisation
protocol path (commit 9967c2e).  It replays through
:func:`repro.overlay.gossip.dissemination_trace`, i.e. through the same
``forward_cycles`` / ``forward_targets`` the node forwards with.

If a future PR intentionally changes forwarding order, regenerate the file
with ``tests/golden/capture_protocol_golden.py`` and document why in
CHANGES.md.
"""

import json
import os
import random

import pytest

from repro.overlay.gossip import dissemination_trace
from repro.overlay.hgraph import HGraph

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DISSEMINATION_PATH = os.path.join(GOLDEN_DIR, "golden_protocol_dissemination.json")


@pytest.fixture(scope="module")
def dissemination_golden():
    with open(DISSEMINATION_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build_golden_graph(golden) -> HGraph:
    return HGraph.random(
        [f"g{i}" for i in range(golden["vertices"])],
        golden["cycles"],
        random.Random(golden["graph_seed"]),
    )


def as_json_rounds(rounds):
    return [[[vertex, list(targets)] for vertex, targets in row] for row in rounds]


class TestDisseminationGolden:
    def test_flood_replays_pre_optimisation_trace(self, dissemination_golden):
        graph = build_golden_graph(dissemination_golden)
        rounds = dissemination_trace(
            graph, "g0", "flood", message_id=dissemination_golden["message_id"]
        )
        assert as_json_rounds(rounds) == dissemination_golden["flood"]

    def test_flood_trace_survives_mutation_and_restoration(self, dissemination_golden):
        """Cache invalidation: mutate the graph, undo it, replay the golden."""
        graph = build_golden_graph(dissemination_golden)
        message_id = dissemination_golden["message_id"]
        # Warm the caches, splice a vertex in and out again, then replay.
        dissemination_trace(graph, "g0", "flood", message_id=message_id)
        anchors = [graph.predecessor("g0", cycle) for cycle in range(graph.hc)]
        graph.insert_vertex("transient", anchors)
        graph.remove("transient")
        rounds = dissemination_trace(graph, "g0", "flood", message_id=message_id)
        assert as_json_rounds(rounds) == dissemination_golden["flood"]
