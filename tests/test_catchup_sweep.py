"""A standing six-seed sweep of the fault-matrix rows that exercise catch-up.

Every row that runs both anti-entropy and PBFT checkpointing, over seeds
7-27 (the committed matrix runs only 7 and 11).  Each row must stay free of
invariant violations and meet its delivery bound on at least as many runs as
it does today.  Two rows fail their bound *vacuously* on some seeds -- no
replica needed a state transfer, so there was no catch-up to time -- and
their floors record that; a fix that forces a transfer raises them.
"""

from repro.faults.scenarios import run_matrix


SEEDS = (7, 11, 15, 19, 23, 27)

#: Row -> runs (of six) that must meet the delivery bound.
MET_RUNS_FLOOR = {
    "broadcast/isolated_catchup_pbft": 3,
    "broadcast/byz_transfer_stonewall": 6,
    "broadcast/byz_transfer_slow_drip": 6,
    "broadcast/byz_transfer_garbage": 5,
    "broadcast/split_stall_pbft": 6,
    "broadcast/checkpoint_gc_pbft": 6,
    "broadcast/epoch_crossing_catchup": 6,
    "churn/epoch_checkpoint": 6,
}


def test_catchup_rows_hold_over_six_seeds():
    rows = run_matrix(names=list(MET_RUNS_FLOOR), seeds=SEEDS, workers=2)
    assert [row["scenario"] for row in rows] == list(MET_RUNS_FLOOR)
    for row in rows:
        assert row["antientropy"] and row["checkpoint_interval"] > 0, row["scenario"]
        assert row["violations"] == 0, row["scenario"]
        floor = MET_RUNS_FLOOR[row["scenario"]]
        assert row["delivery_bound_met_runs"] >= floor, (
            row["scenario"],
            row["delivery_bound_met_runs"],
        )
