"""Golden-trace determinism tests for the protocol fast path (PR 2).

Two golden files captured by ``tests/golden/capture_protocol_golden.py``:

* ``golden_protocol_dissemination.json`` — structural round-by-round
  forwarding over a 3-cycle H-graph.  The ``flood`` trace was captured on the
  PRE-optimisation protocol path (commit 9967c2e) and must replay
  byte-identically on the cached-neighbour-table fast path.  The ``random``
  trace locks the NEW deterministic draw scheme (ordered neighbour list +
  ``rng.sample``): the pre-PR ``random_policy`` drew from a hash-salted set
  order and therefore had no byte-stable cross-process behaviour to record.
* ``golden_protocol_stack.json`` — the full ``(time, tag)`` event trace and
  figures of a protocol-stack broadcast scenario (group messenger fan-out +
  gossip forwarding + heartbeats on the real network/simulator), captured on
  the pre-PR path.  The batched-fan-out/slotted-delivery rewrite must change
  wall-clock speed and nothing else.

If a future PR intentionally changes protocol scheduling semantics,
regenerate the golden files with the capture script and document why in
CHANGES.md.
"""

import json
import os
import random

import pytest

from repro.overlay.gossip import dissemination_trace, flood_policy, random_policy
from repro.overlay.hgraph import HGraph
from repro.sim.protocol_perf import run_broadcast_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DISSEMINATION_PATH = os.path.join(GOLDEN_DIR, "golden_protocol_dissemination.json")
STACK_PATH = os.path.join(GOLDEN_DIR, "golden_protocol_stack.json")


@pytest.fixture(scope="module")
def dissemination_golden():
    with open(DISSEMINATION_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def stack_golden():
    with open(STACK_PATH, "r", encoding="utf-8") as fh:
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
        """The cached fast path reproduces the pre-PR flood forwarding exactly."""
        graph = build_golden_graph(dissemination_golden)
        rounds = dissemination_trace(
            graph,
            "g0",
            flood_policy,
            random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        assert as_json_rounds(rounds) == dissemination_golden["flood"]

    def test_random_policy_matches_deterministic_golden(self, dissemination_golden):
        """The new seeded random policy is byte-stable across processes."""
        graph = build_golden_graph(dissemination_golden)
        rounds = dissemination_trace(
            graph,
            "g0",
            random_policy(fanout=2),
            random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        assert as_json_rounds(rounds) == dissemination_golden["random"]

    def test_flood_trace_survives_mutation_and_restoration(self, dissemination_golden):
        """Cache invalidation: mutate the graph, undo it, replay the golden."""
        graph = build_golden_graph(dissemination_golden)
        # Warm the caches, splice a vertex in and out again, then replay.
        dissemination_trace(
            graph, "g0", flood_policy, random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        anchors = [graph.predecessor("g0", cycle) for cycle in range(graph.hc)]
        graph.insert_vertex("transient", anchors)
        graph.remove("transient")
        rounds = dissemination_trace(
            graph, "g0", flood_policy, random.Random(17),
            message_id=dissemination_golden["message_id"],
        )
        assert as_json_rounds(rounds) == dissemination_golden["flood"]


def run_stack_scenario(stack_golden):
    trace = []
    outcome = run_broadcast_scenario(
        seed=stack_golden["seed"],
        groups=stack_golden["groups"],
        group_size=stack_golden["group_size"],
        hc=stack_golden["hc"],
        broadcasts=stack_golden["broadcasts"],
        policy="flood",
        horizon=stack_golden["horizon"],
        trace=trace,
    )
    return trace, outcome


def stack_figures(stack_golden, outcome):
    return {key: outcome[key] for key in stack_golden["figures"]}


class TestStackGolden:
    def test_matches_pre_optimisation_stack_trace(self, stack_golden):
        trace, outcome = run_stack_scenario(stack_golden)
        assert len(trace) == stack_golden["trace_length"]
        assert [[t, tag] for t, tag in trace] == stack_golden["trace"]
        assert stack_figures(stack_golden, outcome) == stack_golden["figures"]

    def test_two_runs_are_byte_identical(self, stack_golden):
        trace_a, outcome_a = run_stack_scenario(stack_golden)
        trace_b, outcome_b = run_stack_scenario(stack_golden)
        assert trace_a == trace_b
        assert outcome_a["delivery_latency_samples"] == outcome_b["delivery_latency_samples"]
        assert stack_figures(stack_golden, outcome_a) == stack_figures(stack_golden, outcome_b)
