"""Deterministic, rewindable synthetic instruction traces.

A trace is a pure function of ``(spec, memory config, seed, thread base)``:
``get(i)`` returns the i-th dynamic instruction, computed statelessly from
the loop body and the iteration number.  This is what allows the pipeline to
*flush and refetch* a thread after a squash — rewinding is just re-reading
earlier indices; the regenerated instructions are bit-identical.

Address-space layout (per thread, offset by ``base``):

    code   region 0    — 4 bytes per static instruction
    hot    region 1    — small cache-resident working set
    burst  region 2
    random region 3
    chase  region 8+c  — one walk area per chain
    stout  region 24+s — streaming store targets
    stream region 32+j — one array per stream

Each region additionally gets a pseudo-random line-granular offset so that
region bases do not all alias to cache set 0 (they are 2^32-aligned
otherwise, which would put every array in the same set of every cache).
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.isa import Instr, Op
from repro.util import mix64, mix64_step
from repro.workloads.spec import BenchmarkSpec, Slot, SlotKind, build_body

_REGION_SHIFT = 32
_CHASE_WALK_MULT = 2654435761  # Knuth multiplicative-hash constant (odd)
_TWO64 = float(1 << 64)

# Row kinds of an iteration-varying slot (see ``SyntheticTrace._row``).
# The compiled engine evaluates the same rows; it cross-checks these
# codes at load time.
ROW_LINEAR = 0   # addr = a + ((b + c * (iteration // every)) % m) * l
ROW_HASHED = 1   # addr = a + (mix64_step(h0, iteration) % m) * l
ROW_BURST = 2    # ROW_HASHED when iteration % every == 0, else addr = alt
ROW_BRANCH = 3   # taken = mix64_step(h0, iteration) / 2**64 < alt

_INSTR_NEW = Instr.__new__


def _from_proto(proto: Instr, addr: int | None, taken: bool) -> Instr:
    """Clone a per-slot prototype with a fresh address/direction.

    ``Instr.__init__`` re-filters the source tuple on every call; for the
    iteration-varying slots only ``addr``/``taken`` actually change, so the
    fetch path clones a prototype (sharing the filtered ``srcs`` tuple)
    with six direct slot stores instead.
    """
    ins = _INSTR_NEW(Instr)
    ins.pc = proto.pc
    ins.op = proto.op
    ins.dest = proto.dest
    ins.srcs = proto.srcs
    ins.addr = addr
    ins.taken = taken
    ins.is_load = proto.is_load
    ins.is_store = proto.is_store
    ins.is_branch = proto.is_branch
    ins.has_dest = proto.has_dest
    ins.dest_fp = proto.dest_fp
    ins.op_i = proto.op_i
    ins.fp_queue = proto.fp_queue
    ins.latency = proto.latency
    return ins


class SyntheticTrace:
    """Lazy, stateless dynamic instruction stream for one thread."""

    def __init__(self, spec: BenchmarkSpec, mem_cfg: MemoryConfig,
                 seed: int = 0, base: int = 0, pc_base: int = 0):
        self.spec = spec
        self.seed = seed
        self.base = base
        self.pc_base = pc_base
        body = build_body(spec)
        if pc_base:
            body = [Slot(s.kind, pc_base + s.pc, s.op, s.dest, s.srcs,
                         s.index, s.taken_prob) for s in body]
        self.body: list[Slot] = body
        self.body_len = len(self.body)
        line = mem_cfg.line_size
        l3 = mem_cfg.l3.size
        self._line = line

        def region(idx: int) -> int:
            # The line-granular skew spreads region bases across cache sets;
            # without it every 2^32-aligned region would map to set 0.
            skew = (mix64(idx, 0xA11A5) % 4096) * line
            return base + (idx << _REGION_SHIFT) + skew

        def footprint(units: float) -> int:
            # Align the region footprint to whole lines, at least 4 lines.
            return max(int(units * l3) // line, 4) * line

        self.code_base = region(0)
        self.hot_base = region(1)
        # The hot set must stay cache-resident on scaled-down machines too:
        # cap it at half the L1D capacity.
        hot_bytes = min(spec.hot_footprint_bytes, mem_cfg.l1d.size // 2)
        self.hot_lines = max(hot_bytes // line, 1)
        stride = spec.stream_stride
        period = max(line // stride, 1)
        self.stream_fp = footprint(spec.stream_footprint)
        self.stream_bases = []
        for j in range(spec.streams):
            phase = 0
            if spec.streams:
                phase = int(j * period * spec.stream_stagger / spec.streams) % period
            self.stream_bases.append(region(32 + j) + phase * stride)
        self.chase_fp_lines = footprint(spec.chase_footprint) // line
        self.chase_bases = [region(8 + c) for c in range(spec.chase_chains)]
        self.burst_base = region(2)
        self.burst_lines = footprint(spec.burst_footprint) // line
        self.random_base = region(3)
        self.random_lines = footprint(spec.random_footprint) // line
        self.stout_bases = [region(24 + s) for s in range(spec.stream_stores)]
        self.stout_fp = footprint(spec.stream_footprint)
        # Pre-materialize instructions for slots that do not vary by
        # iteration (compute, consumers, loop-back branch), and prototypes
        # (pc/op/dest/filtered srcs) for the iteration-varying ones so
        # ``get`` clones instead of re-running ``Instr.__init__``.
        self._static: list[Instr | None] = [
            self._static_instr(slot) for slot in self.body]
        # One row per iteration-varying slot (None where ``_static`` holds
        # the instruction): the prototype plus the integer parameters of
        # the slot's address formula.  ``get`` and the compiled engine's
        # fetch path both evaluate these rows, so each address formula
        # has exactly one definition.
        self._rows: list[tuple | None] = [
            self._row(slot) if static is None else None
            for slot, static in zip(self.body, self._static)]

    def _proto_instr(self, slot: Slot) -> Instr:
        """Prototype for an iteration-varying slot, one per kind.

        Field-for-field the same ``Instr`` each ``get`` branch used to
        build, minus the varying ``addr``/``taken``: loads keep their
        destination, stores and conditional branches have none.
        """
        kind = slot.kind
        if kind in (SlotKind.STREAM_LOAD, SlotKind.HOT_LOAD,
                    SlotKind.CHASE_LOAD, SlotKind.BURST_LOAD,
                    SlotKind.RANDOM_LOAD):
            return Instr(slot.pc, Op.LOAD, slot.dest, slot.srcs)
        if kind in (SlotKind.STORE, SlotKind.STREAM_STORE):
            return Instr(slot.pc, Op.STORE, None, slot.srcs)
        if kind is SlotKind.COND_BRANCH:
            return Instr(slot.pc, Op.BRANCH, None, slot.srcs)
        raise AssertionError(
            f"unhandled slot kind {kind!r}")  # pragma: no cover

    def _static_instr(self, slot: Slot) -> Instr | None:
        kind = slot.kind
        if kind in (SlotKind.INDUCTION, SlotKind.INT_OP, SlotKind.FP_OP,
                    SlotKind.CONSUMER):
            return Instr(slot.pc, slot.op, slot.dest, slot.srcs)
        if kind is SlotKind.LOOP_BRANCH:
            return Instr(slot.pc, Op.BRANCH, None, slot.srcs, taken=True)
        return None

    def pc_address(self, pc: int) -> int:
        return self.code_base + (pc - self.pc_base) * 4

    def _row(self, slot: Slot) -> tuple:
        """``(kind, proto, a, b, c, m, l, every, h0, alt)`` for one slot.

        ``h0`` is ``mix64(seed, local_pc)``: hashing the constant key
        prefix once leaves one :func:`mix64_step` per fetch, and keeps
        the value within 64 bits whatever the seed.  The pc is the
        *local* one so the generated stream is identical regardless of
        which hardware-thread slot the program occupies.
        """
        kind = slot.kind
        spec = self.spec
        line = self._line
        proto = self._proto_instr(slot)
        local_pc = slot.pc - self.pc_base
        h0 = mix64(self.seed, local_pc)
        hot_b = local_pc * 811
        if kind is SlotKind.STREAM_LOAD:
            return (ROW_LINEAR, proto, self.stream_bases[slot.index], 0,
                    spec.stream_stride, self.stream_fp, 1, 1, 0, 0)
        if kind is SlotKind.STREAM_STORE:
            return (ROW_LINEAR, proto, self.stout_bases[slot.index], 0,
                    spec.stream_stride, self.stout_fp, 1, 1, 0, 0)
        if kind in (SlotKind.HOT_LOAD, SlotKind.STORE):
            return (ROW_LINEAR, proto, self.hot_base, hot_b, 1,
                    self.hot_lines, line, 1, 0, 0)
        if kind is SlotKind.CHASE_LOAD:
            return (ROW_LINEAR, proto, self.chase_bases[slot.index],
                    slot.index, _CHASE_WALK_MULT, self.chase_fp_lines, line,
                    spec.chase_every, 0, 0)
        if kind is SlotKind.RANDOM_LOAD:
            return (ROW_HASHED, proto, self.random_base, 0, 0,
                    self.random_lines, line, 1, h0, 0)
        if kind is SlotKind.BURST_LOAD:
            # Off-burst iterations touch one fixed hot line.
            quiet = self.hot_base + (
                (hot_b + slot.index * 67) % self.hot_lines) * line
            return (ROW_BURST, proto, self.burst_base, 0, 0,
                    self.burst_lines, line, spec.burst_every, h0, quiet)
        if kind is SlotKind.COND_BRANCH:
            return (ROW_BRANCH, proto, 0, 0, 0, 1, 0, 1, h0,
                    float(slot.taken_prob))
        raise AssertionError(
            f"unhandled slot kind {kind!r}")  # pragma: no cover

    def get(self, index: int) -> Instr:
        """The ``index``-th dynamic instruction (stateless, repeatable)."""
        body_len = self.body_len
        pos = index % body_len
        static = self._static[pos]
        if static is not None:
            # Iteration-invariant slot (compute, consumer, loop branch):
            # skip the quotient — most fetches take this path.
            return static
        iteration = index // body_len
        kind, proto, a, b, c, m, l, every, h0, alt = self._rows[pos]
        if kind == ROW_LINEAR:
            return _from_proto(
                proto, a + ((b + c * (iteration // every)) % m) * l, False)
        if kind == ROW_BURST and iteration % every:
            return _from_proto(proto, alt, False)
        h = mix64_step(h0, iteration)
        if kind == ROW_BRANCH:
            return _from_proto(proto, None, h / _TWO64 < alt)
        return _from_proto(proto, a + (h % m) * l, False)
