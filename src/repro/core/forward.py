"""A vgroup's gossip forward of one broadcast, decided once for all its
members (:class:`ForwardPlan`); each member's own part of a Sync forward is
its :class:`repro.core.node.SyncForward`."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.crypto.digest import digest_object
from repro.group.messages import DIGEST_BYTES, GroupMessageEnvelope, GroupMessenger
from repro.group.vgroup import VGroupView
from repro.overlay.gossip import forward_cycles, forward_targets, sends_first

if TYPE_CHECKING:
    from repro.core.node import BroadcastMessage


class _ShareEnvelopes(dict):
    """Per target, a plan's (digest-only, full) share envelopes, built on
    first use: a hit is a plain dict read."""

    __slots__ = ("message", "view", "gm_prefix")

    def __init__(self, message: BroadcastMessage, view: VGroupView, gm_prefix: str) -> None:
        super().__init__()
        self.message = message
        self.view = view
        self.gm_prefix = gm_prefix

    def __missing__(self, target: str) -> Tuple[GroupMessageEnvelope, GroupMessageEnvelope]:
        message, view = self.message, self.view
        digest, gm_id = digest_object(message), self.gm_prefix + target
        pair = self[target] = (
            GroupMessenger.envelope(view, target, "gossip", None, digest, gm_id),
            GroupMessenger.envelope(view, target, "gossip", message, digest, gm_id),
        )
        return pair


class ForwardPlan:
    """One vgroup's gossip forward of one broadcast, decided once.

    Every correct member of a vgroup forwards a broadcast first accepted from
    one source vgroup to the same targets under the same view, so the
    targets, their :func:`~repro.overlay.gossip.sends_first` order and the
    share envelopes are the vgroup's.  The first member to forward builds the
    plan, the directory keeps it for a round
    (:meth:`repro.core.cluster.AtumCluster.forward_plan`) and the others read
    it.  Each member keeps what only it knows: the later sources it heard
    from whole (``AtumNode._uncovered``), its ``forward_fn``, whether it
    sends full copies, and the target views it reads at send time.

    Attributes:
        message: The broadcast.
        view: The sending vgroup's view, which every envelope is stamped with.
        targets: The base targets in order: ``forward_targets`` over the
            policy's ``forward_cycles``, the first source excluded.
        first: Per target, whether the vgroup sends along that edge first.
        first_targets: ``targets`` the vgroup sends to first, in order.
        deferred_targets: The other ``targets``, in order.
        sizes: Wire size of a digest-only share and of a full share.
        gm_prefix: The gm-id of a share to target ``t`` is ``gm_prefix + t``.
        envelopes: ``envelopes[t][full]`` is the one share envelope to target
            ``t``, digest-only or full; any group id may be asked for.
    """

    __slots__ = ("message", "view", "targets", "first", "first_targets",
                 "deferred_targets", "sizes", "gm_prefix", "envelopes")

    def __init__(
        self,
        message: BroadcastMessage,
        source_group: str,
        view: VGroupView,
        pairs: Sequence[Tuple[str, str]],
        policy: str,
    ) -> None:
        bcast_id = message.bcast_id
        own = view.group_id
        self.message = message
        self.view = view
        targets: List[str] = []
        if pairs:
            cycles = forward_cycles(policy, bcast_id, len(pairs))
            targets = forward_targets(pairs, cycles, own, (source_group,))
        self.targets = targets
        first = self.first = {gid: sends_first(bcast_id, own, gid) for gid in targets}
        self.first_targets = [gid for gid in targets if first[gid]]
        self.deferred_targets = [gid for gid in targets if not first[gid]]
        self.sizes = (DIGEST_BYTES, message.size_bytes + 64)
        self.gm_prefix = f"gossip:{bcast_id}:{own}->"
        self.envelopes = _ShareEnvelopes(message, view, self.gm_prefix)


__all__ = ["ForwardPlan"]
