"""ATL007: payload mutation after being handed to send*/broadcast/seal."""

from lint_utils import lint_fixture, rules_of


def test_flags_method_mutation_item_write_and_branch_dominated_send():
    findings = lint_fixture("atl007_bad.py", rules=["ATL007"])
    assert rules_of(findings) == ["ATL007"] * 5
    messages = "\n".join(f.message for f in findings)
    assert "'payload'.append" in messages
    assert "'message' mutated" in messages  # subscript write after send_direct
    assert "'payload'.clear" in messages  # send dominating inside one branch


def test_broadcast_and_seal_hand_over_like_send():
    messages = [f.message for f in lint_fixture("atl007_bad.py", rules=["ATL007"])]
    assert any("'update' mutated" in m and "broadcast(...)" in m for m in messages)
    assert any("'message'.update" in m and "seal(...)" in m for m in messages)


def test_copies_rebinds_branch_locality_and_pragma_pass():
    assert lint_fixture("atl007_ok.py") == []
