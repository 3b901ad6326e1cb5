"""Actor base class: a protocol participant living on the simulator."""

from __future__ import annotations

from typing import Any

from repro.sim.simulator import Simulator


class Actor:
    """A named participant in the simulation.

    Actors receive messages through :meth:`on_message` (delivered by a
    :class:`repro.net.network.Network`); timers are plain
    :meth:`~repro.sim.simulator.Simulator.schedule` calls.  Concrete
    protocols subclass ``Actor`` and dispatch on the message payload type.

    The base attributes are slotted; subclasses may still add arbitrary
    attributes (they get a ``__dict__`` of their own unless they declare
    ``__slots__`` too).
    """

    __slots__ = ("sim", "address", "__dict__")

    def __init__(self, sim: Simulator, address: str) -> None:
        self.sim = sim
        self.address = address

    # ---------------------------------------------------------------- messages

    def on_message(self, payload: Any, sender: str) -> None:  # pragma: no cover
        """Handle a delivered message.  Subclasses override this."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.address}>"


__all__ = ["Actor"]
