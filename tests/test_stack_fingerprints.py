"""Behaviour fingerprints of the five ``stack`` benchmark workloads.

Each workload runs once at ``--scale tiny``, seed 7, untraced, in a fresh
child interpreter (``benchmarks/stack/run.py --child``, ``PYTHONHASHSEED=0``,
about a second each), and three numbers of its fingerprint must equal the
pins below: the simulated events, the messages sent and the SHA-256 of the
latency sample.  A change that claims "no behaviour change" keeps every pin;
the tiny runs still cross the request layer (one checkpoint transfer in
``smr_pbft_1vg``, four anti-entropy pulls in ``bcast_faults_ae``).

A change that moves a pin on purpose re-pins it here and names the move
(workload, old value, new value, why) in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "stack" / "run.py"
#: A quiet reference host's burst time; the fingerprint never depends on it.
BURST_S = "0.0075"

PINS = {
    "bcast_sync_flood": (
        3430, 2916, "8450d3a00b3adaf5f8377b842a19c80f3f48c6b4ce190a443bc1d00e903191e1"
    ),
    "bcast_sync_mw": (
        3430, 2916, "8450d3a00b3adaf5f8377b842a19c80f3f48c6b4ce190a443bc1d00e903191e1"
    ),
    "smr_pbft_1vg": (
        7374, 7352, "1badfaffba4673f235e17474a19e2533c69efa72f9e6bbad8845240657e385de"
    ),
    "churn_hb": (
        2326, 8592, "c4bddc78113937a1fb9b479668b998db0b90ec646c2e98516ca572dcf5d17122"
    ),
    "bcast_faults_ae": (
        6519, 5851, "e591229a1827fbfb59daf98b5bee47966ba3402c7a2ab2da5d2d34126ca29057"
    ),
}


@pytest.mark.parametrize("workload", sorted(PINS))
def test_tiny_seed7_fingerprint_matches_its_pin(workload):
    command = [
        sys.executable, str(RUN), "--child", "--workload", workload,
        "--scale", "tiny", "--seed", "7", "--trace", "0",
        "--spawned-burst", BURST_S, "--spawned-at", repr(time.perf_counter()),
    ]
    done = subprocess.run(
        command,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    fingerprint = json.loads(done.stdout.splitlines()[-1])["fingerprint"]
    got = (
        fingerprint["sim.events"],
        fingerprint["net.msgs_sent"],
        fingerprint["latency_sample_sha256"],
    )
    assert got == PINS[workload]
