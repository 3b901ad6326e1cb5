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
    scanned = {name: kind for _line, kind, name in iter_metric_name_literals(tree)}
    for name in ("group.shares_sent", "group.messages_accepted"):
        assert scanned.get(name) == "counter"
        assert "repro/group/messages.py" in METRICS[name]["modules"]


def test_registered_names_and_reasoned_pragma_pass():
    assert lint_fixture("atl006_ok.py") == []
