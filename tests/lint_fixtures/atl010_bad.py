"""ATL010 fixture: middleware hooks that retain their (reused) context."""


class Keeper:
    def __init__(self):
        self.last = None
        self.by_receiver = {}
        self.log = []
        self.seen = set()
        self.later = []

    def on_send(self, ctx):
        self.last = ctx
        self.by_receiver[ctx.receiver] = (ctx.now, ctx)
        self.log.append(ctx)
        self.seen.add(ctx)

    def on_deliver(self, context):
        self.later.append(lambda: context.address)

        def replay():
            return context.payload

        self.later.append(replay)
        self.later.append(lambda kept=context: kept.address)

    def on_eviction(self, ctx):
        return ctx


def on_timer(ctx):
    yield ctx
