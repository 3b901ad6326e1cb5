"""Deliver a state-transfer response the way a correct responder does."""

from repro.net.requests import ResponseEnvelope


def deliver_transfer_response(replica, response, peer="replica-0"):
    """Hand ``response`` to ``replica`` inside a ``ckpt.transfer`` envelope.

    The envelope answers the replica's outstanding transfer request (the
    certified one when there is one) and arrives from a peer that request
    queried, so the checkpoint manager judges ``response`` exactly as it
    would judge a reply on the wire.  With no request outstanding, a gap hint
    naming ``peer`` opens one first.
    """
    manager = replica.checkpoints
    pending = manager._requests._pending
    if not pending:
        manager.on_gap_hint(peer, len(replica.decided_log) + 1)
    assert pending, "no ckpt.transfer request to answer"
    request = pending.get(manager._transfer_request_id) or next(iter(pending.values()))
    envelope = ResponseEnvelope(
        request_id=request.request_id, kind="ckpt.transfer", payload=response
    )
    replica.on_message(envelope, min(request.queried))
