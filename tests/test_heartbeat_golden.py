"""Golden runs of the heartbeat / eviction path.

Both files were captured by ``tests/golden/capture_heartbeat_golden.py``
(which holds the scenarios and says what they record).  The other goldens
run with heartbeats off, so these are what pin the failure detector's
traffic, event order and — through the ordered suspicion reports — the
eviction vote's input:

* ``golden_heartbeat_churn60.json``: a heartbeats-on cluster under churn with
  one crashed member evicted by its vgroup;
* ``golden_heartbeat_faults40.json``: a heartbeats-on cluster through a
  partition and its heal, a crash and a recovery beside a crash for good, a
  split with a join during it and its merge, and a partition and a split
  that each heal within a millisecond — each within a median latency of a
  tick, so they pin that a heartbeat's fate is decided when it is sent.

If a future change intentionally moves that behaviour, see what moved with
``capture_heartbeat_golden.py --diff``, regenerate the files with the capture
script and document why in CHANGES.md.
"""

import importlib.util
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _capture_module():
    path = os.path.join(GOLDEN_DIR, "capture_heartbeat_golden.py")
    spec = importlib.util.spec_from_file_location("capture_heartbeat_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_heartbeat_churn_run_replays_the_golden():
    capture = _capture_module()
    golden = _golden(capture.GOLDEN_PATH)
    replay = capture.run_scenario()
    # Not vacuous: the crashed member was reported by a majority and evicted.
    assert golden["evictions_started"] == 1.0
    assert not golden["crashed_is_member"]
    assert {suspect for _, _, suspect in golden["suspicion_reports"]} == {capture.CRASHED}
    assert replay == golden


def test_heartbeat_fault_run_replays_the_golden():
    capture = _capture_module()
    golden = _golden(capture.FAULTS_GOLDEN_PATH)
    replay = capture.run_fault_scenario()
    # Not vacuous: the joiner was bound to a side of the split, the member
    # down for good was evicted, the recovered one was not, and copies were
    # cut by the partition and the split.
    assert [address for _, address, _ in golden["split_binds"]] == ["joiner"]
    assert capture.FAULTS_DOWN_FOR_GOOD not in golden["members"]
    assert "n7" in golden["members"]
    assert golden["messages_partitioned"] > 0
    assert replay == golden
