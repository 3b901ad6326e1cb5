"""Volatile group (vgroup) views.

A vgroup is identified by a stable ``group_id`` and, at any point in time, has
a *composition*: the set of node addresses that currently form it, together
with an epoch number that increases on every reconfiguration (join, leave,
shuffle, split, merge).  Nodes keep :class:`VGroupView` snapshots of their own
vgroup and of neighbouring vgroups; group messages are addressed to a view.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """

    group_id: str
    members: Tuple[str, ...]
    epoch: int = 0

    @staticmethod
    def create(group_id: str, members: Iterable[str], epoch: int = 0) -> "VGroupView":
        """Create a view with a deterministic (sorted) member order."""
        return VGroupView(group_id=group_id, members=tuple(sorted(members)), epoch=epoch)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def member_set(self) -> FrozenSet[str]:
        return frozenset(self.members)

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

    def __len__(self) -> int:
        return self.size


__all__ = ["VGroupView", "majority_threshold"]
