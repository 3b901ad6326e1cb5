"""ATL007 fixture: safe post-send patterns and a reasoned waiver."""


def copy_then_mutate(transport, payload, trailer):
    transport.send(list(payload))
    payload.append(trailer)  # the sent copy is independent: no aliasing


def rebind_clears_tracking(transport, payload):
    transport.send(payload)
    payload = []
    payload.append(1)


def branch_local_send_does_not_leak(transport, queue, items):
    for item in items:
        transport.send(item)
    queue.append(items)


def waived(transport, buffer):
    transport.send(buffer)
    buffer.clear()  # atumlint: allow[ATL007] fixture: this transport deep-copies on ingest


def publish_a_copy(node, update):
    node.broadcast(dict(update))
    update["seq"] = 2  # the broadcast owns its own copy


def seal_last(seal, message, late_field):
    message.update(late_field)
    seal(message)
