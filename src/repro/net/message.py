"""The frames the network substrate itself tells apart.

A :class:`Heartbeat` never becomes a message event: the network keeps a
tick's send as one burst for the receivers' failure detectors to read (see
:meth:`repro.net.network.Network.heard`).  A :class:`CorruptedPayload` wraps
a payload garbled in transit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple


class Heartbeat(NamedTuple):
    """Wire payload of a heartbeat message.

    Only the sender matters to a failure detector, so a monitor builds its
    heartbeat once and sends the same immutable object on every tick.
    """

    sender: str


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


__all__ = ["CorruptedPayload", "Heartbeat"]
