"""The parallel backend: genome-partitioned kernels over a process pool.

Models the cluster execution of the paper's section 4.2 on a single
machine: region-heavy operators (MAP, JOIN, DIFFERENCE, COVER) are split
into independent tasks and executed by worker processes.  Everything
else inherits the columnar kernels.

Work is **morselised per (sample pair, chromosome)**: each morsel runs
one vectorised store kernel (:func:`repro.store.join_pairs`,
:func:`repro.store.overlap_pairs` or the counting identity) over block
arrays, so a large chromosome never serialises a whole sample, and zone
maps prune morsels before anything is submitted at all.  Block arrays travel
through ``multiprocessing.shared_memory`` segments managed by the
backend's :class:`~repro.store.ArrayShipper` (one segment per distinct
array, shared by every morsel that references it; pickle fallback when
shared memory is unavailable or disabled), and only the *results* --
count arrays, keep masks, index-pair arrays, coverage rows -- travel
back.  Region objects are rehydrated and aggregates materialised in the
parent with the exact same code the columnar backend runs, so results
are byte-identical by construction.

Inputs no morsel kernel covers -- MAP with an attribute-free non-COUNT
aggregate, exact or joinby DIFFERENCE -- run in the parent on the
columnar backend's path, exactly as :class:`ColumnarBackend` runs them.

Workers never see plan or engine objects; they receive resolved operator
parameters (aggregates, genometric clause scalars) and array handles
only.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.gdm import Dataset, GenomicRegion
from repro.engine.columnar import (
    ColumnarBackend,
    experiment_columns,
    join_emitter,
    pair_group_columns,
    resolve_map_aggregates,
)
from repro.gmql.aggregates import Count
from repro.gmql.operators.base import (
    build_result,
    group_samples,
    merged_metadata,
    sample_pairs,
    union_group_metadata,
)
from repro.store.columnar import point_feature_adjustment
from repro.store.cover_kernels import (
    block_cover_columns,
    chrom_cover_rows,
    mask_chrom_events,
    overlap_any_mask,
    prune_dead_bins,
)
from repro.store.join_kernels import join_pairs, overlap_pairs
from repro.store.shm import ArrayShipper, materialise, shm_enabled


def default_workers() -> int:
    """Worker count when unconfigured: ``REPRO_WORKERS`` env var when set,
    otherwise the CPU count with headroom left for the parent process."""
    from repro.engine.context import workers_from_env

    configured = workers_from_env()
    if configured is not None:
        return configured
    return max(2, min(8, (os.cpu_count() or 2) - 1))


# -- shared-memory morsel tasks (module level: must be picklable) ---------------
#
# Every task receives lists of array *handles* from the parent's
# ArrayShipper, attaches/releases them around the store kernel, and
# returns freshly allocated result arrays -- never views into segments.


def _count_morsel_task(handles):
    """Overlap counts for one reference chromosome block.

    *handles*: ``[ref_starts, ref_stops, probe_sorted_starts,
    probe_sorted_stops, probe_zero_positions]``.  Returns counts aligned
    with the reference block rows.
    """
    arrays, release = materialise(handles)
    try:
        starts, stops, p_starts, p_stops, p_zeros = arrays
        started = np.searchsorted(p_starts, stops, side="left")
        ended = np.searchsorted(p_stops, starts, side="right")
        return started - ended + point_feature_adjustment(
            p_zeros, starts, stops
        )
    finally:
        release()


def _overlap_morsel_task(handles):
    """Overlap pairs for one reference chromosome block.

    *handles*: ``[ref_starts, ref_stops, exp_sorted_starts,
    exp_left_stops]``.  Returns ``(ref_rows, e_positions)``.
    """
    arrays, release = materialise(handles)
    try:
        r_starts, r_stops, e_starts, e_stops = arrays
        return overlap_pairs(r_starts, r_stops, e_starts, e_stops)
    finally:
        release()


def _join_morsel_task(handles, spec):
    """Genometric join pairs for one anchor chromosome block.

    *handles*: ``[a_starts, a_stops, a_strands, e_sorted_starts,
    e_left_stops]`` plus ``e_sorted_stops`` when *spec* carries an MD
    clause; *spec* holds the resolved clause scalars.  Returns
    ``(a_rows, e_positions, gaps)``.
    """
    arrays, release = materialise(handles)
    try:
        a_starts, a_stops, a_strands, e_starts, e_stops = arrays[:5]
        e_sorted_stops = arrays[5] if len(arrays) > 5 else None
        return join_pairs(
            a_starts, a_stops, a_strands, e_starts, e_stops, e_sorted_stops,
            max_distance=spec["max_distance"],
            min_distance=spec["min_distance"],
            md_k=spec["md_k"],
            upstream=spec["upstream"],
            downstream=spec["downstream"],
        )
    finally:
        release()


def _difference_sweep_morsel_task(handles):
    """Keep-mask for one left chromosome block against the sweep mask.

    *handles*: ``[ref_starts, ref_stops]`` followed by the five
    :func:`repro.store.mask_chrom_events` arrays of the probe side's
    chromosome (wide events, merged coverage runs, zero positions).
    ``True`` where the reference overlaps nothing.
    """
    arrays, release = materialise(handles)
    try:
        return ~overlap_any_mask(*arrays)
    finally:
        release()


def _cover_sweep_morsel_task(handles, lo, hi, variant):
    """One COVER-family (group, chromosome) morsel's output rows.

    *handles* hold each contributing block's persisted sorted columns
    (:func:`repro.store.block_cover_columns` order: 3 per block, 4 for
    FLAT).  Returns ``(lefts, rights, depths)`` arrays -- sound per
    chromosome, since no COVER variant merges runs across chromosomes.
    """
    arrays, release = materialise(handles)
    try:
        per = 4 if variant == "FLAT" else 3
        parts = [
            tuple(arrays[i:i + per]) for i in range(0, len(arrays), per)
        ]
        return chrom_cover_rows(parts, lo, hi, variant)
    finally:
        release()


class ParallelBackend(ColumnarBackend):
    """Process-pool backend; inherits columnar kernels for the rest.

    With *pool*, the backend submits morsels to an externally owned
    ``ProcessPoolExecutor`` instead of creating its own: the query
    server keeps one warm pool resident and hands it to every backend
    slot, so concurrent queries multiplex onto the same worker
    processes and no request ever pays pool start-up.  ``close`` never
    shuts a borrowed pool down -- its owner decides when workers die.
    """

    name = "parallel"

    def __init__(
        self, max_workers: int | None = None, pool=None
    ) -> None:
        super().__init__()
        self._explicit_workers = max_workers is not None
        self._max_workers = max_workers or default_workers()
        self._pool: ProcessPoolExecutor | None = None
        self._borrowed_pool = pool
        self._shipper: ArrayShipper | None = None
        self._shm_reported = (0, 0, 0)

    @property
    def max_workers(self) -> int:
        """The worker count the (lazily created) pool will use."""
        return self._max_workers

    def bind_context(self, context):
        """Adopt the context's worker count unless explicitly configured.

        The pool is created lazily on first kernel call, so rebinding
        before execution re-sizes it; once the pool exists it is kept
        (one ``ProcessPoolExecutor`` per backend instance, reused across
        kernels).
        """
        super().bind_context(context)
        if (
            context is not None
            and context.workers is not None
            and not self._explicit_workers
            and self._pool is None
        ):
            self._max_workers = context.workers
        return self

    def _executor(self) -> ProcessPoolExecutor:
        if self._borrowed_pool is not None:
            return self._borrowed_pool
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def shipper(self) -> ArrayShipper:
        """The backend's (lazily created) shared-memory array shipper.

        Honours the execution-context config (``use_shm: False``) and
        the ``REPRO_SHM`` environment gate at creation time.
        """
        if self._shipper is None:
            flag = None
            if self._context is not None:
                flag = self._context.config.get("use_shm", True)
            self._shipper = ArrayShipper(enabled=shm_enabled(flag))
        return self._shipper

    def _note_shm(self) -> None:
        """Account shipping byte deltas into the context metrics."""
        if self._shipper is None or self._context is None:
            return
        shared, pickled, mapped = self._shm_reported
        new_shared = self._shipper.bytes_shared
        new_pickled = self._shipper.bytes_pickled
        new_mapped = self._shipper.bytes_mapped
        if new_shared > shared:
            self._context.metrics.increment(
                "shm.bytes_shared", new_shared - shared
            )
        if new_pickled > pickled:
            self._context.metrics.increment(
                "shm.bytes_pickled", new_pickled - pickled
            )
        if new_mapped > mapped:
            self._context.metrics.increment(
                "shm.bytes_mapped", new_mapped - mapped
            )
        self._shm_reported = (new_shared, new_pickled, new_mapped)

    def close(self) -> None:
        """Shut the worker pool down and unlink shared segments (idempotent).

        Order matters: workers drain first (``shutdown(wait=True)``), then
        the shipper unlinks -- a segment must never disappear under a
        still-running morsel.  A borrowed pool is left running: other
        backend slots may be mid-query on it, and its owner (the query
        server's warm state) shuts it down at server stop.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shipper is not None:
            self._shipper.close()
            self._shipper = None
            self._shm_reported = (0, 0, 0)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- MAP -------------------------------------------------------------------

    def run_map(self, plan, reference: Dataset, experiment: Dataset):
        aggregates = plan.aggregates or {"count": (Count(), None)}
        only_counts = all(
            isinstance(aggregate, Count) and attribute is None
            for aggregate, attribute in aggregates.values()
        )
        if only_counts:
            return self._run_map_counts_morsels(
                plan, reference, experiment, aggregates
            )
        if any(
            attribute is None and not isinstance(aggregate, Count)
            for aggregate, attribute in aggregates.values()
        ):
            # Attribute-free non-COUNT aggregates reduce over region
            # objects: the columnar backend hands them to the naive kernel.
            return super().run_map(plan, reference, experiment)
        return self._run_map_pairs_morsels(
            plan, reference, experiment, aggregates
        )

    def _run_map_counts_morsels(self, plan, reference, experiment, aggregates):
        def kernel():
            from repro.gdm import AttributeDef, INT

            self.note_kernel("map.count+shm")
            schema = reference.schema.extend(
                *(AttributeDef(name, INT) for name in aggregates)
            )
            bin_size = self.store_bin_size()
            ref_store = self.dataset_store(reference, bin_size)
            exp_store = self.dataset_store(experiment, bin_size)
            ship = self.shipper().ship
            pairs = list(sample_pairs(reference, experiment, plan.joinby))
            morsels = []  # per pair: [(block, future), ...]
            for ref, exp in pairs:
                ref_blocks = ref_store.blocks(ref)
                exp_blocks = exp_store.blocks(exp)
                tasks, pruned = [], 0
                for chrom, block in ref_blocks.chroms.items():
                    ref_entry = ref_blocks.zone_map.entry(chrom)
                    probe_entry = exp_blocks.zone_map.entry(chrom)
                    if probe_entry is None or not ref_entry.window_overlaps(
                        probe_entry.min_start, probe_entry.max_stop
                    ):
                        pruned += ref_entry.partitions
                        continue
                    probe = exp_blocks.chroms[chrom]
                    handles = [
                        ship(block.starts), ship(block.stops),
                        ship(probe.sorted_starts), ship(probe.sorted_stops),
                        ship(probe.zero_positions),
                    ]
                    tasks.append(
                        (
                            block,
                            self._executor().submit(
                                _count_morsel_task, handles
                            ),
                        )
                    )
                self.note_pruned(pruned)
                morsels.append(tasks)
            self._note_shm()
            width = len(aggregates)

            def parts():
                for (ref, exp), tasks in zip(pairs, morsels):
                    counts = np.zeros(len(ref.regions), dtype=np.int64)
                    for block, future in tasks:
                        counts[block.index] = future.result()
                    regions = [
                        region.with_values(
                            region.values + (int(count),) * width
                        )
                        for region, count in zip(ref.regions, counts)
                    ]
                    yield (
                        regions,
                        merged_metadata(ref, exp),
                        [
                            (reference.name, ref.id),
                            (experiment.name, exp.id),
                        ],
                    )

            return build_result(
                "MAP",
                f"MAP({reference.name},{experiment.name})",
                schema,
                parts(),
                parameters="parallel",
            )

        return self.timed("MAP", kernel)

    def _run_map_pairs_morsels(self, plan, reference, experiment, aggregates):
        def kernel():
            self.note_kernel("map.pairs+shm")
            schema, resolved = resolve_map_aggregates(
                aggregates, reference, experiment
            )
            bin_size = self.store_bin_size()
            ref_store = self.dataset_store(reference, bin_size)
            exp_store = self.dataset_store(experiment, bin_size)
            ship = self.shipper().ship
            pairs = list(sample_pairs(reference, experiment, plan.joinby))
            columns_by_sample: dict = {}
            empty_row = tuple(
                aggregate.compute([]) for aggregate, __, ___ in resolved
            )
            morsels = []  # per pair: [(ref_block, exp_block, future), ...]
            for ref, exp in pairs:
                ref_blocks = ref_store.blocks(ref)
                exp_blocks = exp_store.blocks(exp)
                if exp.id not in columns_by_sample:
                    columns_by_sample[exp.id] = experiment_columns(
                        exp.regions, resolved
                    )
                tasks, pruned = [], 0
                for chrom, block in ref_blocks.chroms.items():
                    exp_block = exp_blocks.block(chrom)
                    ref_entry = ref_blocks.zone_map.entry(chrom)
                    if exp_block is None:
                        pruned += ref_entry.partitions
                        continue
                    exp_entry = exp_blocks.zone_map.entry(chrom)
                    if not ref_entry.window_overlaps(
                        exp_entry.min_start, exp_entry.max_stop
                    ):
                        pruned += ref_entry.partitions
                        continue
                    handles = [
                        ship(block.starts), ship(block.stops),
                        ship(exp_block.sorted_starts),
                        ship(exp_block.left_stops),
                    ]
                    tasks.append(
                        (
                            block,
                            exp_block,
                            self._executor().submit(
                                _overlap_morsel_task, handles
                            ),
                        )
                    )
                self.note_pruned(pruned)
                morsels.append(tasks)
            self._note_shm()

            def parts():
                for (ref, exp), tasks in zip(pairs, morsels):
                    columns = columns_by_sample[exp.id]
                    rows = [empty_row] * len(ref.regions)
                    for block, exp_block, future in tasks:
                        ref_rows, e_pos = future.result()
                        columns_out = pair_group_columns(
                            block, exp_block, ref_rows, e_pos,
                            columns, resolved,
                        )
                        positions = block.index.tolist()
                        for local, values in enumerate(zip(*columns_out)):
                            rows[positions[local]] = values
                    regions = [
                        region.with_values(region.values + extras)
                        for region, extras in zip(ref.regions, rows)
                    ]
                    yield (
                        regions,
                        merged_metadata(ref, exp),
                        [
                            (reference.name, ref.id),
                            (experiment.name, exp.id),
                        ],
                    )

            return build_result(
                "MAP",
                f"MAP({reference.name},{experiment.name})",
                schema,
                parts(),
                parameters="parallel",
            )

        return self.timed("MAP", kernel)

    # -- JOIN ------------------------------------------------------------------

    def run_join(self, plan, anchor: Dataset, experiment: Dataset):
        def kernel():
            from repro.gdm import AttributeDef, INT
            from repro.gmql.genometric import Downstream, Upstream

            condition = plan.condition
            spec = {
                "max_distance": condition.max_distance(),
                "min_distance": condition.min_distance(),
                "md_k": condition.min_distance_k(),
                "upstream": any(
                    isinstance(c, Upstream) for c in condition.clauses
                ),
                "downstream": any(
                    isinstance(c, Downstream) for c in condition.clauses
                ),
            }
            self.note_kernel(
                ("join.nearest" if spec["md_k"] is not None else "join.window")
                + "+shm"
            )
            merged = anchor.schema.merge(experiment.schema)
            schema = merged.schema.extend(AttributeDef("dist", INT))
            emit = join_emitter(merged, plan.output)
            max_distance = spec["max_distance"]
            bin_size = self.store_bin_size()
            anchor_store = self.dataset_store(anchor, bin_size)
            exp_store = self.dataset_store(experiment, bin_size)
            ship = self.shipper().ship
            pairs = list(sample_pairs(anchor, experiment, plan.joinby))
            morsels = []  # per pair: [(a_block, e_block, future), ...]
            for a, e in pairs:
                a_blocks = anchor_store.blocks(a)
                e_blocks = exp_store.blocks(e)
                tasks, pruned = [], 0
                for chrom, a_block in a_blocks.chroms.items():
                    e_block = e_blocks.block(chrom)
                    a_entry = a_blocks.zone_map.entry(chrom)
                    if e_block is None:
                        pruned += a_entry.partitions
                        continue
                    if max_distance is not None:
                        e_entry = e_blocks.zone_map.entry(chrom)
                        # Widened by one on each side: DLE accepts
                        # gap == limit, window_overlaps is strict.
                        if not e_entry.window_overlaps(
                            a_entry.min_start - max_distance - 1,
                            a_entry.max_stop + max_distance + 1,
                        ):
                            pruned += a_entry.partitions
                            continue
                    handles = [
                        ship(a_block.starts), ship(a_block.stops),
                        ship(a_block.strands),
                        ship(e_block.sorted_starts),
                        ship(e_block.left_stops),
                    ]
                    if spec["md_k"] is not None:
                        handles.append(ship(e_block.sorted_stops))
                    tasks.append(
                        (
                            a_block,
                            e_block,
                            self._executor().submit(
                                _join_morsel_task, handles, spec
                            ),
                        )
                    )
                self.note_pruned(pruned)
                morsels.append(tasks)
            self._note_shm()

            def parts():
                for (a, e), tasks in zip(pairs, morsels):
                    regions = []
                    for a_block, e_block, future in tasks:
                        a_rows, e_pos, gaps = future.result()
                        if a_rows.size == 0:
                            continue
                        a_index = a_block.index[a_rows]
                        e_index = e_block.index[e_block.left_order[e_pos]]
                        for a_i, e_i, gap in zip(
                            a_index.tolist(), e_index.tolist(), gaps.tolist()
                        ):
                            out = emit(a.regions[a_i], e.regions[e_i], gap)
                            if out is not None:
                                regions.append(out)
                    regions.sort(key=GenomicRegion.sort_key)
                    yield (
                        regions,
                        merged_metadata(a, e),
                        [(anchor.name, a.id), (experiment.name, e.id)],
                    )

            return build_result(
                "JOIN",
                f"JOIN({anchor.name},{experiment.name})",
                schema,
                parts(),
                parameters="parallel",
            )

        return self.timed("JOIN", kernel)

    # -- COVER -------------------------------------------------------------------

    def run_cover(self, plan, child: Dataset):
        def kernel():
            from repro.gdm import (
                AttributeDef, INT, RegionSchema, chromosome_sort_key,
            )

            schema = RegionSchema((AttributeDef("acc_index", INT),))
            groups = group_samples(child, plan.groupby)
            store = self.dataset_store(child)
            ship = self.shipper().ship
            morsels = []  # per group, chrom-ordered (chrom, future)
            for __, samples in groups:
                lo = plan.min_acc.resolve(len(samples), is_lower=True)
                hi = plan.max_acc.resolve(len(samples), is_lower=False)
                # Morsel per chromosome: each ships the contributing
                # blocks' *persisted* sorted columns (no re-sort, no
                # concatenated copies -- the shipper memoises by array
                # identity) and returns the sweep kernel's row arrays;
                # no COVER variant merges runs across chromosomes, so
                # the parent just concatenates in genome order.
                prune = max(lo, 1) >= 2
                per_chrom: dict = {}
                for sample in samples:
                    for chrom, block in store.blocks(sample).chroms.items():
                        per_chrom.setdefault(chrom, []).append(
                            block_cover_columns(
                                block, plan.variant, with_pairs=prune
                            )
                        )
                tasks = []
                for chrom in sorted(per_chrom, key=chromosome_sort_key):
                    chrom_parts = per_chrom[chrom]
                    if prune:
                        # Dead bins are pruned in the parent, before
                        # shipping: workers then receive only the
                        # surviving columns.
                        chrom_parts, pruned = prune_dead_bins(
                            chrom_parts, lo, store.bin_size, plan.variant,
                        )
                        self.note_pruned(pruned)
                    handles = [
                        ship(column)
                        for part in chrom_parts
                        for column in part
                    ]
                    tasks.append(
                        (
                            chrom,
                            self._executor().submit(
                                _cover_sweep_morsel_task, handles,
                                lo, hi, plan.variant,
                            ),
                        )
                    )
                morsels.append(tasks)
            self._note_shm()

            def parts():
                for (__, samples), tasks in zip(groups, morsels):
                    out = []
                    for chrom, future in tasks:
                        lefts, rights, depths = future.result()
                        out.extend(
                            GenomicRegion(chrom, left, right, "*", (depth,))
                            for left, right, depth in zip(
                                lefts.tolist(),
                                rights.tolist(),
                                depths.tolist(),
                            )
                        )
                    yield (
                        out,
                        union_group_metadata(samples),
                        [(child.name, sample.id) for sample in samples],
                    )

            return build_result(
                plan.variant,
                f"{plan.variant}({child.name})",
                schema,
                parts(),
                parameters="parallel",
            )

        return self.timed("COVER", kernel)

    # -- DIFFERENCE -----------------------------------------------------------------

    def run_difference(self, plan, left: Dataset, right: Dataset):
        if plan.exact or plan.joinby:
            return super().run_difference(plan, left, right)

        def kernel():
            # Morsel per (sample, chromosome): ship block handles, get
            # keep-masks back; zone-disjoint chromosomes never leave the
            # parent (kept wholesale).  The probe side's sweep arrays are
            # a per-chromosome constant, computed lazily in the parent;
            # the shipper memoises them by array identity, so every
            # sample's morsels share one shipment.
            samples = list(left)
            bin_size = self.store_bin_size()
            left_store = self.dataset_store(left, bin_size)
            mask_blocks = self.dataset_store(right, bin_size).union_blocks()
            ship = self.shipper().ship
            mask_events: dict = {}

            def chrom_events(chrom):
                events = mask_events.get(chrom)
                if events is None:
                    events = mask_chrom_events(mask_blocks.chroms[chrom])
                    mask_events[chrom] = events
                return events

            morsels = []
            for sample in samples:
                blocks = left_store.blocks(sample)
                tasks, pruned = [], 0
                for chrom, block in blocks.chroms.items():
                    entry = blocks.zone_map.entry(chrom)
                    mask_entry = mask_blocks.zone_map.entry(chrom)
                    if mask_entry is None or not entry.window_overlaps(
                        mask_entry.min_start, mask_entry.max_stop
                    ):
                        pruned += entry.partitions
                        continue
                    handles = [
                        ship(block.starts), ship(block.stops),
                    ] + [ship(array) for array in chrom_events(chrom)]
                    tasks.append(
                        (
                            block,
                            self._executor().submit(
                                _difference_sweep_morsel_task, handles
                            ),
                        )
                    )
                self.note_pruned(pruned)
                morsels.append(tasks)
            self._note_shm()

            def parts():
                for sample, tasks in zip(samples, morsels):
                    keep = np.ones(len(sample.regions), dtype=bool)
                    for block, future in tasks:
                        keep[block.index] = future.result()
                    kept = [
                        region
                        for region, ok in zip(sample.regions, keep)
                        if ok
                    ]
                    yield (kept, sample.meta, [(left.name, sample.id)])

            return build_result(
                "DIFFERENCE",
                f"DIFFERENCE({left.name},{right.name})",
                left.schema,
                parts(),
                parameters="parallel",
            )

        return self.timed("DIFFERENCE", kernel)
