"""ATL006 fixture: metric name literals that are not in the registry."""


def report(metrics):
    metrics.increment("invariants.check_error")  # typo: registered name has a trailing s
    metrics.counters["no.such.metric"] += 1
    metrics.observe("also.not.registered", 1.0)


class Sender:
    def __init__(self, metrics):
        self._bump = metrics.increment  # bound-method alias: still a metric call

    def send(self):
        self._bump("group.share_sent")  # typo: registered name is group.shares_sent
