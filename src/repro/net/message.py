"""The wrapper the network substrate delivers a garbled payload in."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class CorruptedPayload:
    """A payload whose bits were flipped in transit (``LinkFault.corrupt``).

    The network cannot know the semantics of the payload it garbles, so it
    wraps the original object and lets the receiving actor model detection:
    group-message shares run the payload-digest verification of
    :class:`repro.group.messages.GroupMessenger` (digest mismatch -> share
    discarded); everything else fails transport authentication and is
    dropped whole.  An actor that does not recognise the wrapper simply
    ignores it, which is the same outcome.
    """

    inner: Any


__all__ = ["CorruptedPayload"]
