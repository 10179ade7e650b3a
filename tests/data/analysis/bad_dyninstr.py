"""DynInstr half of the known-bad engine-parity fixture (parsed only).

``mystery`` has no SoAView accessor — the slot would silently read as
garbage through the struct-of-arrays view layer — and ``ghost`` reads a
column the fixture's CextCore does not declare.
"""


class DynInstr:
    __slots__ = ("seq", "mystery", "ghost")


class SoAView:
    @property
    def seq(self):
        return self._core._col_seq[self._slot]

    @property
    def ghost(self):
        return self._core._col_ghost[self._slot]
