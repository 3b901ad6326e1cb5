"""Deliver a state-transfer response the way a correct responder does."""

from repro.net.requests import ResponseEnvelope
from repro.smr.checkpoint import CheckpointAnnounce


def announce_to(replica, announcer):
    """Hand ``replica`` the announce ``announcer`` would broadcast now."""
    certificate, transitions = announcer.checkpoints._serving_chain()
    assert certificate is not None, f"{announcer.node_id} holds no certificate"
    replica.on_message(
        CheckpointAnnounce(
            epoch=announcer.epoch,
            certificate=certificate,
            log_length=len(announcer.decided_log),
            view=announcer.view,
            transitions=transitions,
        ),
        announcer.node_id,
    )


def deliver_transfer_response(replica, response, announcer):
    """Hand ``response`` to ``replica`` inside a ``ckpt.transfer`` envelope.

    The envelope answers the replica's outstanding transfer request and
    arrives from a peer that request queried, so the checkpoint manager
    judges ``response`` exactly as it would judge a reply on the wire.  With
    no request outstanding, ``announcer`` (a co-replica holding a
    certificate) announces it first: the replica verifies the certificate
    and opens the request itself.
    """
    manager = replica.checkpoints
    pending = manager._requests._pending
    if not pending:
        announce_to(replica, announcer)
    assert pending, "no ckpt.transfer request to answer"
    request = pending[manager._transfer_request_id]
    envelope = ResponseEnvelope(
        request_id=request.request_id, kind="ckpt.transfer", payload=response
    )
    replica.on_message(envelope, min(request.queried))
