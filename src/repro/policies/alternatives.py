"""The alternative MLP-aware fetch policies of Section 6.5 / Figure 19.

The five schemes compared there are:

  (a) flush                      — :class:`repro.policies.flush.FlushPolicy`
  (b) MLP distance + flush       — :class:`repro.policies.mlp_flush.MLPFlushPolicy`
  (c) binary MLP + flush         — :class:`BinaryMLPFlushPolicy`
  (d) MLP distance + flush at resource stall
                                 — :class:`MLPDistanceFlushAtStallPolicy`
  (e) binary MLP + flush at resource stall
                                 — :class:`BinaryMLPFlushAtStallPolicy`

This module implements (c), (d) and (e).
"""

from __future__ import annotations

from repro.policies.base import LongLatencyAwarePolicy


class BinaryMLPFlushPolicy(LongLatencyAwarePolicy):
    """(c): a 1-bit MLP predictor decides flush vs. business-as-usual.

    No MLP predicted → flush past the long-latency load and stall until the
    data returns.  MLP predicted → no flush, no stall; fetching continues
    past long-latency loads following plain ICOUNT.
    """

    __slots__ = ()

    name = "binary_mlp_flush"

    def on_ll_detect(self, di, ts):
        if ts.binary_mlp.predict(di.instr.pc):
            return
        self._flush_to(ts, di.seq)
        ts.set_owner(di, di.seq, self.core.cycle)


class MLPDistanceFlushAtStallPolicy(LongLatencyAwarePolicy):
    """(d): stall after the predicted MLP distance; flush on resource stall.

    On detection, the thread may fetch up to the predicted MLP distance and
    then fetch-stalls — but nothing is flushed yet.  If the machine later
    hits a resource stall (no thread can dispatch because a shared structure
    is full), the stalled thread is flushed past the *initial* long-latency
    load, freeing everything while the already-issued independent misses
    keep filling the caches (the refetch then hits: a prefetching effect).
    """

    __slots__ = ()

    name = "mlp_flush_rs"
    reacts_to_resource_stall = True

    def on_ll_detect(self, di, ts):
        if ts.ll_owners:  # episode already anchored at the initial load
            return
        distance = ts.mlp_pred.predict(di.instr.pc)
        ts.set_owner(di, di.seq + distance, self.core.cycle)

    def _holds_meaningful_share(self, ts) -> bool:
        """Is this thread actually part of the resource-stall problem?

        The flush-at-resource-stall rationale is "free resources to be
        used by other threads"; a stalled thread holding well under its
        fair ROB share has nothing worth freeing, and flushing it anyway
        livelocks it against a fast co-runner that saturates the machine
        on its own (every refetch of the window dies to the next stall).
        """
        fair = self.core.cfg.rob_size / self.core.cfg.num_threads
        return ts.rob_count >= fair / 2

    def _flush_keeping_fills(self, ts, after_seq) -> None:
        """Flush, but let in-flight fills run to completion.

        This is the mechanism the paper states for these alternatives:
        "independent long-latency loads most likely will have started
        execution and their latencies will overlap.  When the initial
        long-latency load returns, fetching resumes and the load ...
        is likely going to be a hit — there is a prefetching effect."
        Cancelling the fills (the squash semantics used for the plain
        flush policies) would delete exactly that effect.
        """
        if ts.fetch_index - 1 > after_seq:
            self.core.flush_thread(ts, after_seq, cancel_fills=False)

    def on_resource_stall(self, cycle):
        for ts in self.core.threads:
            if not ts.policy_stalled or not self._holds_meaningful_share(ts):
                continue
            owner = ts.oldest_owner()
            if owner is None:
                continue
            self._flush_keeping_fills(ts, owner.seq)
            # The flush may have squashed younger owners; re-pin the stall
            # to the surviving initial load.
            ts.set_owner(owner, owner.seq, cycle)


class BinaryMLPFlushAtStallPolicy(LongLatencyAwarePolicy):
    """(e): binary MLP predictor + flush at resource stall.

    No MLP predicted → flush immediately (as in (c)).  MLP predicted → keep
    fetching past the load with no distance limit; when a resource stall
    occurs, flush past the load and stall until it resolves.  Fetching past
    the *last* load of a burst causes more resource stalls — and therefore
    more refetch overhead — than (d), which is the paper's explanation for
    (d) outperforming (e).
    """

    __slots__ = ()

    name = "binary_mlp_flush_rs"
    reacts_to_resource_stall = True

    _holds_meaningful_share = MLPDistanceFlushAtStallPolicy._holds_meaningful_share
    _flush_keeping_fills = MLPDistanceFlushAtStallPolicy._flush_keeping_fills

    def attach(self, core):
        super().attach(core)
        for ts in core.threads:
            ts.policy_data["episodes"] = {}

    def on_ll_detect(self, di, ts):
        if ts.binary_mlp.predict(di.instr.pc):
            ts.policy_data["episodes"][di] = True
            return
        self._flush_to(ts, di.seq)
        ts.set_owner(di, di.seq, self.core.cycle)

    def on_load_complete(self, di, ts):
        ts.policy_data["episodes"].pop(di, None)
        super().on_load_complete(di, ts)

    # Episode anchors and owner grants are both identity-keyed, so the
    # cext engine may skip the call for never-seen records (see
    # repro.policies.base).
    on_load_complete._identity_keyed_cleanup = True

    def on_resource_stall(self, cycle):
        for ts in self.core.threads:
            if not self._holds_meaningful_share(ts):
                continue
            episodes = ts.policy_data["episodes"]
            live = [di for di in episodes if not di.squashed and not di.completed]
            if not live:
                continue
            oldest = min(live, key=lambda di: di.seq)
            self._flush_keeping_fills(ts, oldest.seq)
            ts.set_owner(oldest, oldest.seq, cycle)
            episodes.clear()
