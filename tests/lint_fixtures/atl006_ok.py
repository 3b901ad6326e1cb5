"""ATL006 fixture: registered names pass; a probe name carries a waiver."""


def report(metrics):
    metrics.increment("invariants.check_errors")
    metrics.counters["invariants.check_errors"] += 1
    # atumlint: allow[ATL006] fixture: probe metric only ever read inside this fixture
    metrics.increment("fixture.probe")
    bump = metrics.increment
    bump("group.shares_sent")
