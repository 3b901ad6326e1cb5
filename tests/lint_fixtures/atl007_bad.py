"""ATL007 fixture: payloads mutated after being handed to send*/broadcast/seal."""


def broadcast(transport, payload, trailer):
    transport.send(payload)
    payload.append(trailer)


def annotate(transport, message):
    transport.send_direct(message)
    message["hops"] = 1


def branch_send(transport, payload, fast):
    if fast:
        transport.send(payload)
        payload.clear()


def publish(node, update):
    node.broadcast(update)
    update["seq"] = 2


def seal_then_patch(seal, message, late_field):
    seal(message)
    message.update(late_field)
