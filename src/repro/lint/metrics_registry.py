"""GENERATED metric-name registry — do not edit by hand.

Regenerate with ``python -m repro.lint --gen-metrics`` after adding or
removing a metric; ``python -m repro.lint --check`` fails while this file
and the code disagree.  Maps every counter/histogram/series name literal
used anywhere in ``src/repro`` to its kind, the modules that use it, and
whether it surfaces as a ``FAULT_MATRIX.json`` row column.
"""

METRICS = {
    'ae.hints_sent': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.rejected_malformed': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.reproposals': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.requests_sent': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.shares_resent': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.store_gc_dropped': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.summaries_sent': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.summary_replies': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.summary_resets': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ae.summary_window_truncated': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py',),
        "matrix_column": False,
    },
    'ashare.get_latency': {
        "kind": 'histogram',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.get_latency_per_mb': {
        "kind": 'histogram',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.get_missing': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.get_no_replica': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'ashare.replications_started': {
        "kind": 'counter',
        "modules": ('repro/apps/ashare.py',),
        "matrix_column": False,
    },
    'astream.invalid_chunks': {
        "kind": 'counter',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'astream.pulls': {
        "kind": 'counter',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'astream.tier2_latency': {
        "kind": 'histogram',
        "modules": ('repro/apps/astream.py',),
        "matrix_column": False,
    },
    'atum.broadcast_reproposals': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.broadcasts_started': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.deliveries': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.delivery_latency': {
        "kind": 'histogram',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.forwards_deferred': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.forwards_suppressed': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'atum.gossip_forwards': {
        "kind": 'counter',
        "modules": ('repro/core/node.py',),
        "matrix_column": False,
    },
    'cluster.eviction_duplicate_suppressed': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'cluster.eviction_leave_failed': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'directory.evictions_deferred': {
        "kind": 'counter',
        "modules": ('repro/overlay/directory.py',),
        "matrix_column": False,
    },
    'directory.join_revalidations_revoked': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'directory.joins_recorded': {
        "kind": 'counter',
        "modules": ('repro/overlay/directory.py',),
        "matrix_column": False,
    },
    'directory.merge_eviction_failed': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'directory.merge_evictions_enforced': {
        "kind": 'counter',
        "modules": ('repro/core/cluster.py',),
        "matrix_column": False,
    },
    'directory.merges': {
        "kind": 'counter',
        "modules": ('repro/overlay/directory.py',),
        "matrix_column": False,
    },
    'directory.splits': {
        "kind": 'counter',
        "modules": ('repro/overlay/directory.py',),
        "matrix_column": False,
    },
    'faults.evictions_proposed_by_byzantine': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.flash_join_failed': {
        "kind": 'counter',
        "modules": ('repro/faults/scenarios.py',),
        "matrix_column": False,
    },
    'faults.messages_corrupted': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py',),
        "matrix_column": False,
    },
    'faults.messages_delayed': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py',),
        "matrix_column": False,
    },
    'faults.messages_dropped': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.messages_duplicated': {
        "kind": 'counter',
        "modules": ('repro/faults/injector.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.partitions_formed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.partitions_healed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.plan_leave_skipped': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.rejoin_group_fraction': {
        "kind": 'histogram',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.rejoin_join_failed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.rejoin_joins': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.rejoin_leave_failed': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.rejoin_leaves': {
        "kind": 'counter',
        "modules": ('repro/faults/behaviours.py',),
        "matrix_column": False,
    },
    'faults.rejoin_threshold_excess': {
        "kind": 'histogram',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'faults.transfer_garbage_served': {
        "kind": 'counter',
        "modules": ('repro/faults/byzantine.py',),
        "matrix_column": False,
    },
    'faults.transfer_slow_dripped': {
        "kind": 'counter',
        "modules": ('repro/faults/byzantine.py',),
        "matrix_column": False,
    },
    'faults.transfer_stale_served': {
        "kind": 'counter',
        "modules": ('repro/faults/byzantine.py',),
        "matrix_column": False,
    },
    'faults.transfer_stonewalled': {
        "kind": 'counter',
        "modules": ('repro/faults/byzantine.py',),
        "matrix_column": False,
    },
    'group.corrupted_shares_dropped': {
        "kind": 'counter',
        "modules": ('repro/group/messages.py',),
        "matrix_column": False,
    },
    'group.equivocations_sent': {
        "kind": 'counter',
        "modules": ('repro/faults/byzantine.py',),
        "matrix_column": False,
    },
    'group.evictions_proposed': {
        "kind": 'counter',
        "modules": ('repro/group/heartbeat.py',),
        "matrix_column": False,
    },
    'group.forged_size_rejected': {
        "kind": 'counter',
        "modules": ('repro/group/messages.py',),
        "matrix_column": False,
    },
    'group.messages_accepted': {
        "kind": 'counter',
        "modules": ('repro/group/messages.py',),
        "matrix_column": False,
    },
    'group.payload_digest_mismatch': {
        "kind": 'counter',
        "modules": ('repro/group/messages.py',),
        "matrix_column": False,
    },
    'group.pending_retired': {
        "kind": 'counter',
        "modules": ('repro/group/messages.py',),
        "matrix_column": False,
    },
    'group.shares_sent': {
        "kind": 'counter',
        "modules": ('repro/group/messages.py',),
        "matrix_column": False,
    },
    'invariants.check_errors': {
        "kind": 'counter',
        "modules": ('repro/faults/invariants.py',),
        "matrix_column": False,
    },
    'membership.evictions_started': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.exchanges_attempted': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py', 'repro/workloads/growth.py'),
        "matrix_column": False,
    },
    'membership.exchanges_completed': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py', 'repro/workloads/growth.py'),
        "matrix_column": False,
    },
    'membership.exchanges_suppressed': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.group_count': {
        "kind": 'series',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.join_latency': {
        "kind": 'histogram',
        "modules": ('repro/workloads/churn.py',),
        "matrix_column": False,
    },
    'membership.joins_completed': {
        "kind": 'counter',
        "modules": ('repro/workloads/churn.py',),
        "matrix_column": False,
    },
    'membership.joins_started': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.leaves_completed': {
        "kind": 'counter',
        "modules": ('repro/workloads/churn.py',),
        "matrix_column": False,
    },
    'membership.leaves_started': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.merges': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.slowdown_penalty': {
        "kind": 'histogram',
        "modules": ('repro/faults/behaviours.py', 'repro/faults/scenarios.py'),
        "matrix_column": True,
    },
    'membership.splits': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'membership.system_size': {
        "kind": 'series',
        "modules": ('repro/overlay/membership.py', 'repro/workloads/growth.py'),
        "matrix_column": False,
    },
    'membership.walks_started': {
        "kind": 'counter',
        "modules": ('repro/overlay/membership.py',),
        "matrix_column": False,
    },
    'mw.delivers': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.evictions': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.nodes_added': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.nodes_left': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'mw.view_changes': {
        "kind": 'counter',
        "modules": ('repro/core/middleware.py',),
        "matrix_column": False,
    },
    'net.bytes_sent': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.corrupted_discarded': {
        "kind": 'counter',
        "modules": ('repro/core/node.py', 'repro/net/network.py'),
        "matrix_column": False,
    },
    'net.delivery_latency': {
        "kind": 'histogram',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.latency_sample_rejected': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_delivered': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_lost': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_partitioned': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_sent': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.messages_undeliverable': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'net.send_verdict_rejected': {
        "kind": 'counter',
        "modules": ('repro/net/network.py',),
        "matrix_column": False,
    },
    'req.completed': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.gave_up': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.quarantine_released': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.quarantined': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_expired': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_malformed': {
        "kind": 'counter',
        "modules": ('repro/group/antientropy.py', 'repro/net/requests.py', 'repro/smr/checkpoint.py'),
        "matrix_column": False,
    },
    'req.rejected_misaddressed': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_replayed': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_unknown': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.rejected_unsolicited': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.resolved_externally': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.sent': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'req.timeouts': {
        "kind": 'counter',
        "modules": ('repro/net/requests.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.anchors_adopted': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.announce_resets': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.announces': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.catchup_latency': {
        "kind": 'histogram',
        "modules": ('repro/faults/scenarios.py', 'repro/smr/checkpoint.py'),
        "matrix_column": True,
    },
    'smr.checkpoint.emitted': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.epoch_transitions': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.gaps_detected': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.ops_installed': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.rejected': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.slots_gc': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.stable': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.state_requests': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.state_responses': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.tail_view_changes': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.transfers_completed': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.checkpoint.transition_votes': {
        "kind": 'counter',
        "modules": ('repro/smr/checkpoint.py',),
        "matrix_column": False,
    },
    'smr.decided': {
        "kind": 'counter',
        "modules": ('repro/smr/base.py',),
        "matrix_column": False,
    },
    'smr.pbft.new_views': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.pre_prepares': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.rejected_nonmember_vote': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.rejected_relayed_vote': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.unknown_frame': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.view_change_revotes': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.pbft.view_changes': {
        "kind": 'counter',
        "modules": ('repro/smr/pbft.py',),
        "matrix_column": False,
    },
    'smr.sync.instances_started': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
    'smr.sync.invalid_chain': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
    'smr.sync.null_decisions': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
    'smr.sync.relays': {
        "kind": 'counter',
        "modules": ('repro/smr/dolev_strong.py',),
        "matrix_column": False,
    },
}

__all__ = ["METRICS"]
