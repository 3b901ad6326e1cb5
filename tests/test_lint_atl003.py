"""ATL003: unordered set iteration on protocol paths."""

from lint_utils import lint_fixture, rules_of


def test_flags_set_loop_into_send_rng_sample_and_set_pop():
    findings = lint_fixture("atl003_bad.py", rules=["ATL003"])
    assert rules_of(findings) == ["ATL003", "ATL003", "ATL003", "ATL003"]
    messages = [f.message for f in findings]
    assert any("feeds send(...)" in m for m in messages)
    assert any(".sample(...)" in m for m in messages)
    assert any("set.pop()" in m for m in messages)


def test_follows_a_set_return_annotation_through_filtered_lists_into_a_draw():
    # The hash-seed dependence of MembershipEngine._merge (ROADMAP 1a): the
    # set arrives through ``graph.neighbors() -> Set[str]``, is filtered into
    # a list twice, and only then reaches ``rng.choice``.
    finding = lint_fixture("atl003_bad.py", rules=["ATL003"])[-1]
    assert finding.snippet == "target = self._rng.choice(fitting)"
    assert "list built in a set's iteration order" in finding.message


def test_sorted_wrap_and_reasoned_pragma_pass():
    assert lint_fixture("atl003_ok.py") == []
