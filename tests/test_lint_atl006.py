"""ATL006: metric name literals validated against the generated registry."""

from lint_utils import lint_fixture, rules_of


def test_flags_typo_unknown_subscript_and_unknown_histogram():
    findings = lint_fixture("atl006_bad.py", rules=["ATL006"])
    assert rules_of(findings) == ["ATL006", "ATL006", "ATL006", "ATL006"]
    messages = "\n".join(f.message for f in findings)
    assert "'invariants.check_error'" in messages  # the typo'd counter
    assert "'no.such.metric'" in messages  # container-subscript idiom
    assert "'also.not.registered'" in messages  # histogram observe
    assert "'group.share_sent'" in messages  # through a bound-method alias


def test_bound_method_alias_names_are_scanned_and_attributed():
    """GroupMessenger bumps its counters only through an alias of
    ``metrics.increment``; the registry must see those names at their writer."""
    import ast

    from lint_utils import SRC
    from repro.lint.metrics_registry import METRICS
    from repro.lint.rules import iter_metric_name_literals

    tree = ast.parse((SRC / "group" / "messages.py").read_text(encoding="utf-8"))
    scanned = {name: kind for _line, kind, name, _read in iter_metric_name_literals(tree)}
    for name in ("group.shares_sent", "group.messages_accepted"):
        assert scanned.get(name) == "counter"
        assert "repro/group/messages.py" in METRICS[name]["modules"]


def test_conditional_names_yield_both_arms_and_reads_are_told_from_writes():
    import ast

    from repro.lint.rules import iter_metric_name_literals

    tree = ast.parse(
        "metrics.increment('a.evicted' if eviction else 'a.left')\n"
        "metrics.counters['a.bumped'] += 1\n"
        "total = metrics.counter('a.read') + counters.get('a.got', 0.0)\n"
        "mean = metrics.histograms['a.hist'].mean\n"
    )
    scanned = {name: (kind, read) for _line, kind, name, read in iter_metric_name_literals(tree)}
    assert scanned == {
        "a.evicted": ("counter", False),
        "a.left": ("counter", False),
        "a.bumped": ("counter", False),
        "a.read": ("counter", True),
        "a.got": ("counter", True),
        "a.hist": ("histogram", True),
    }


def test_registered_names_and_reasoned_pragma_pass():
    assert lint_fixture("atl006_ok.py") == []
