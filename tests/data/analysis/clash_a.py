"""slots-lint fixture: one of two modules defining ``_Entry`` (parsed only)."""


class _Entry:
    """Its writes are all declared slots of *this* ``_Entry``."""

    __slots__ = ("last_addr", "stride")

    def __init__(self):
        self.last_addr = -1
        self.stride = 0
