"""ATL005 fixture: slot-consistent writes, open layouts, and a waiver."""


class Cache:
    __slots__ = ("entries", "hits")

    def __init__(self):
        self.entries = {}
        self.hits = 0


class Open(Cache):
    __slots__ = ("extra", "__dict__")

    def __init__(self):
        super().__init__()
        self.extra = 1
        self.anything = 2  # __dict__ in __slots__: layout open, not checked


class Waived:
    __slots__ = ("value",)

    def tag(self):
        self.value = 1
        self.debug_tag = "x"  # atumlint: allow[ATL005] fixture: dev-only write behind a feature flag


class Envelopes(dict):
    __slots__ = ("message",)

    def __init__(self, message):
        super().__init__()
        self.message = message


class Failure(ValueError):
    __slots__ = ("code",)

    def __init__(self, code):
        super().__init__(code)
        self.code = code
        self.note = "x"  # an exception carries a __dict__: layout open, not checked
