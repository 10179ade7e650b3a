"""slots-lint fixture: the other module defining ``_Entry`` (parsed only)."""


class _Entry:
    """Same name as ``clash_a._Entry``, different slots; writes are clean."""

    __slots__ = ("period", "since")

    def __init__(self):
        self.period = -1
        self.since = 0


class _Tagged(_Entry):
    """Its base is this module's ``_Entry``, which has no ``stride``."""

    __slots__ = ("tag",)

    def __init__(self):
        super().__init__()
        self.tag = 0
        self.stride = 1
