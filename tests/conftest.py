"""Suite-wide fixtures."""

import pytest

from repro.crypto.digest import audit_digest_memo, clear_digest_memo
from repro.smr import checkpoint


@pytest.fixture(autouse=True)
def _no_stale_digests():
    """Fail any test that mutated an object after it was sealed.

    ``seal()`` (and the immutability walk) memoise digests by identity on the
    promise that the object never changes again.  Recomputing every live
    memo entry after each test turns a broken promise anywhere in the suite
    into a failure here instead of a silently stale digest; each test starts
    from an empty memo so the culprit is the test that fails.
    """
    clear_digest_memo()
    yield
    stale = audit_digest_memo()
    clear_digest_memo()
    assert not stale, (
        f"{len(stale)} object(s) mutated after their digest was memoised; "
        f"first: {stale[0][0]!r}"
    )


@pytest.fixture
def quiet_announces(monkeypatch):
    """Checkpoint announces off: the test drives every frame by hand."""
    monkeypatch.setattr(checkpoint, "ANNOUNCE_PERIOD", 10_000.0)
