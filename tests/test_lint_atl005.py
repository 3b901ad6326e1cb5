"""ATL005: attribute writes undeclared in (inherited) __slots__."""

from lint_utils import lint_fixture, rules_of


def test_flags_undeclared_write_and_resolves_inherited_slots():
    findings = lint_fixture("atl005_bad.py", rules=["ATL005"])
    assert rules_of(findings) == ["ATL005", "ATL005"]
    message = findings[0].message
    assert "Leaf.gamma" in message
    # Inherited slot resolution: alpha comes from Base, beta from Leaf, and
    # writing either is NOT flagged — only gamma is.
    assert "alpha" in message and "beta" in message


def test_dict_slot_opens_layout_and_pragma_waives():
    assert lint_fixture("atl005_ok.py") == []


def test_a_builtin_base_adds_no_slot():
    # A slotted subclass of dict is checked against its own slots; before
    # builtin bases were known slotless, the unresolvable base opened it.
    findings = lint_fixture("atl005_bad.py", rules=["ATL005"])
    assert "Envelopes.view" in findings[1].message
    assert "message" in findings[1].message
