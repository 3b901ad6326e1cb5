"""Golden run of the heartbeat / eviction path.

``golden_heartbeat_churn60.json`` was captured at commit ebc140e by
``tests/golden/capture_heartbeat_golden.py`` (which holds the scenario and
says what it records): a heartbeats-on cluster under churn with one crashed
member evicted by its vgroup.  The other goldens run with heartbeats off, so
this is what pins the failure detector's traffic, event order and — through
the ordered suspicion reports — the eviction vote's input.

If a future PR intentionally changes that behaviour, regenerate the file with
the capture script and document why in CHANGES.md.
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


def test_heartbeat_churn_run_replays_the_golden():
    capture = _capture_module()
    with open(capture.GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    replay = capture.run_scenario()
    # Not vacuous: the crashed member was reported by a majority and evicted.
    assert golden["evictions_started"] == 1.0
    assert not golden["crashed_is_member"]
    assert {suspect for _, _, suspect in golden["suspicion_reports"]} == {capture.CRASHED}
    assert replay == golden
