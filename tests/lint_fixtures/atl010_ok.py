"""ATL010 fixture: hooks that copy fields out or only pass the context down."""


def describe(ctx):
    return f"{ctx.sender}->{ctx.receiver}"


class Observer:
    def __init__(self, inner):
        self.inner = inner
        self.last_receiver = None
        self.sizes = {}
        self.log = []
        self.kept = None

    def on_send(self, ctx):
        # Fields copied out survive the burst; the context does not.
        self.last_receiver = ctx.receiver
        self.sizes[ctx.receiver] = ctx.size_bytes
        self.log.append((ctx.now, ctx.sender, describe(ctx)))
        self.inner.on_send_seen(ctx)
        ctx.extra_delay = 0.5

    def on_deliver(self, ctx):
        # A nested function with its own ``ctx`` parameter captures nothing.
        self.log.append(max(ctx.senders or (), key=lambda ctx: len(ctx)))
        return ctx.address

    def on_node_added(self, ctx):
        self.kept = ctx  # atumlint: allow[ATL010] fixture: on_node_added contexts are built per event, never reused

    def remember(self, ctx):
        # Not a hook name: whatever this helper does is its own business.
        self.kept = ctx
