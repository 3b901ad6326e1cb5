"""Volatile group (vgroup) views.

A vgroup is identified by a stable ``group_id`` and, at any point in time, has
a *composition*: the set of node addresses that currently form it, together
with an epoch number that increases on every reconfiguration (join, leave,
shuffle, split, merge).  Nodes keep :class:`VGroupView` snapshots of their own
vgroup and of neighbouring vgroups; group messages are addressed to a view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Tuple


def majority_threshold(size: int) -> int:
    """Number of senders required to accept a group message (strict majority)."""
    return size // 2 + 1


@dataclass(frozen=True)
class VGroupView:
    """An immutable snapshot of a vgroup's composition.

    Attributes:
        group_id: Stable identifier of the vgroup.
        members: Node addresses forming the vgroup in this epoch.
        epoch: Reconfiguration counter; higher epochs supersede lower ones.
        member_set: The members as a set, built with the view: every member
            node's layers share it.
    """

    group_id: str
    members: Tuple[str, ...]
    epoch: int = 0
    member_set: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "member_set", frozenset(self.members))

    @staticmethod
    def create(group_id: str, members: Iterable[str], epoch: int = 0) -> "VGroupView":
        """Create a view with a deterministic (sorted) member order."""
        return VGroupView(group_id=group_id, members=tuple(sorted(members)), epoch=epoch)

    @property
    def size(self) -> int:
        return len(self.members)

    def with_members(self, members: Iterable[str]) -> "VGroupView":
        """Return a successor view (epoch + 1) with a new composition."""
        return VGroupView.create(self.group_id, members, epoch=self.epoch + 1)

    def add(self, address: str) -> "VGroupView":
        if address in self.members:
            return self
        return self.with_members(list(self.members) + [address])

    def remove(self, address: str) -> "VGroupView":
        if address not in self.members:
            return self
        return self.with_members(m for m in self.members if m != address)

    def exchange(self, leaving: str, arriving: str) -> "VGroupView":
        """``remove(leaving).add(arriving)`` (epoch + 2), built as one view."""
        members = list(self.members)
        members.remove(leaving)
        members.append(arriving)
        members.sort()
        return VGroupView(self.group_id, tuple(members), self.epoch + 2)

    def __len__(self) -> int:
        return self.size


__all__ = ["VGroupView", "majority_threshold"]
