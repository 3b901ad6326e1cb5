"""ATL005 fixture: attribute write missing from (inherited) __slots__."""


class Base:
    __slots__ = ("alpha",)

    def __init__(self):
        self.alpha = 0


class Leaf(Base):
    __slots__ = ("beta",)

    def __init__(self):
        super().__init__()
        self.alpha = 1  # inherited slot: fine
        self.beta = 2
        self.gamma = 3  # not declared anywhere in the chain


class Envelopes(dict):
    __slots__ = ("message",)

    def __init__(self, message):
        super().__init__()
        self.message = message
        self.view = None  # a builtin base adds no slot
