"""ATL010: a middleware hook must not retain its context."""

from lint_utils import lint_fixture, rules_of


def test_flags_every_way_a_context_escapes_its_hook():
    findings = lint_fixture("atl010_bad.py", rules=["ATL010"])
    assert rules_of(findings) == ["ATL010"] * 9
    messages = [f.message for f in findings]
    assert sum("stores its context" in m for m in messages) == 2
    assert sum("stores (via .append())" in m for m in messages) == 1
    assert sum("stores (via .add())" in m for m in messages) == 1
    assert sum("captures in a closure" in m for m in messages) == 3
    assert sum("returns or yields" in m for m in messages) == 2
    # The parameter is found by position, whatever it is called.
    assert any("on_deliver()" in m and "'context'" in m for m in messages)
    assert all("copy the fields" in m for m in messages)


def test_copying_fields_and_passing_down_pass():
    assert lint_fixture("atl010_ok.py") == []
