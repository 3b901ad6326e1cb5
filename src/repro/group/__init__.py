"""Group layer: volatile groups, group messages, heartbeats, cost model.

The group layer masks individual node failures and provides the abstraction of
robust vgroups (paper section 3.1).  Its building blocks are:

* :class:`repro.group.vgroup.VGroupView` -- an immutable snapshot of a vgroup's
  identity and membership.
* :class:`repro.group.messages.GroupMessenger` -- sends and accepts *group
  messages*: a message from vgroup A to vgroup B is sent by every correct node
  of A to every node of B, and accepted by a node of B once a majority of A has
  sent it.  The digest optimisation of section 5.1 is implemented here.
* :class:`repro.group.heartbeat.HeartbeatMonitor` -- periodic heartbeats and
  eviction of unresponsive group members (section 5.1), all ticked by one
  :class:`repro.group.heartbeat.HeartbeatClock` per cluster.
* :class:`repro.group.cost.GroupCostModel` -- latency model of group-level
  operations (group messages, SMR agreement) used by the vgroup-granularity
  membership engine.
"""

from repro.group.vgroup import VGroupView, majority_threshold
from repro.group.messages import GroupMessenger, GroupMessageEnvelope, NodeBinding
from repro.group.heartbeat import HeartbeatClock, HeartbeatMonitor
from repro.group.cost import GroupCostModel

__all__ = [
    "VGroupView",
    "majority_threshold",
    "GroupMessenger",
    "GroupMessageEnvelope",
    "NodeBinding",
    "HeartbeatClock",
    "HeartbeatMonitor",
    "GroupCostModel",
]
