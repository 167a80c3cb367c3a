"""The three benchmark workloads: cold CLI, warm server, 2-node cluster.

Each workload function takes a :class:`Run` and returns
``(end_to_end, per_layer)`` metric dicts.  A workload sets itself up,
measures for ``run.seconds`` seconds (the cold CLI and the cluster in
whole rotations of their query mix), then checks every result against
the naive oracle outside the measured phase.  See ``LEDGER.md`` for why
each workload exists, which layers it bypasses and which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import statistics
import threading
import time

from inputs import chipseq_cells, generate, read_inputs, write_inputs
from tracing import Tracer, self_time_by_name

#: Times each workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: The cold-CLI and cluster rotation: ``repro.bench.PROGRAMS`` names.
ROTATION = ("map_avg", "join", "cover")

#: Vocabularies of the warm-server request mix.
CELLS = ("HeLa-S3", "K562", "GM12878", "HepG2", "H1-hESC", "A549")
MAP_AGGREGATES = ("COUNT", "AVG(p_value)", "MAX(p_value)")
JOIN_DISTANCES = (500, 1000, 2000, 5000)
COVER_MINIMA = (1, 2, 3, 4)

_PROMOTERS = "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
_CHIPSEQ = "PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;\n"


class Run:
    """Settings, tracer, scratch directories and failure ledger of a run."""

    def __init__(self, workload, seed, seconds, tracer, oracle,
                 tmp_dir) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.oracle = oracle
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        #: ``{query label: [latency seconds]}`` for the printout.
        self.latencies: dict = {}
        self.regions_read = 0

    def record(self, label: str, seconds: float) -> None:
        self.latencies.setdefault(label, []).append(seconds)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a failed one is reported by *what*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def scratch(self, name: str) -> str:
        return os.path.join(self.tmp_dir, name)


# -- measurement helpers ------------------------------------------------------


def percentile(values: list, fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _rss_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def descendants(root: int) -> list:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rpartition(")")[2].split()[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == pid]
        found.extend(children)
        frontier.extend(children)
    return found


class PeakRss:
    """Peak resident memory of this process plus its worker processes.

    Samples every *interval* seconds in a thread; this process's own
    high-water mark (reset on entry) bounds the sample from below.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = None

    def _sample(self) -> None:
        total = _rss_bytes(os.getpid())
        for pid in descendants(os.getpid()):
            try:
                total += _rss_bytes(pid)
            except OSError:
                pass
        self.peak = max(self.peak, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            pass
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_peak = int(line.split()[1]) * 1024
                    self.peak = max(self.peak, own_peak)

    @property
    def megabytes(self) -> float:
        return self.peak / (1024 * 1024)


def _timed_setups(run: Run, build, teardown):
    """Run *build* ``SETUP_REPEATS`` times; keep the last, tear down the rest.

    Returns ``(median seconds, kept state)``.
    """
    seconds = []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        gc.collect()
        started = time.perf_counter()
        with run.tracer.span("setup", "setup"):
            state = build(attempt)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), state


def _end_to_end(setup_s, latencies, elapsed, rss) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1000, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1000, "ms"),
        "throughput_qps": (len(latencies) / elapsed, "1/s"),
        "peak_rss_mb": (rss.megabytes, "MB"),
    }


def _layer_means(run: Run, names: list, per: int,
                 setup: bool = False) -> dict:
    """Mean self seconds of each span name in *names*, per query (or,
    with *setup*, per set-up repeat)."""
    spans = [
        span for span in run.tracer.spans
        if (span["qid"] == "setup") == setup
    ]
    by_name = self_time_by_name(spans)
    return {
        name: sum(by_name.get(name, ())) / max(per, 1) for name in names
    }


def _rotations(run: Run):
    """Yield ``(traced, compared)`` for each rotation of ``run.seconds``.

    A traced run alternates untraced and traced rotations, so it measures
    its own overhead.  The first rotation pays one-off costs (imports, the
    first persist) and is left out of that comparison.
    """
    started = time.perf_counter()
    minimum = 3 if run.tracer.enabled else 1
    rotation = 0
    while rotation < minimum or time.perf_counter() - started < run.seconds:
        yield run.tracer.enabled and rotation % 2 == 1, rotation > 0
        rotation += 1


def _overhead(traced: list, untraced: list) -> dict:
    traced_p50 = percentile(traced, 0.5) * 1000 if traced else 0.0
    untraced_p50 = percentile(untraced, 0.5) * 1000 if untraced else 0.0
    return {
        "trace.traced_p50_ms": traced_p50,
        "trace.untraced_p50_ms": untraced_p50,
        "trace.overhead_ratio": (
            traced_p50 / untraced_p50 if untraced_p50 else 0.0
        ),
    }


def _write_fresh_inputs(run: Run, attempt: int) -> dict:
    root = run.scratch(f"inputs-{attempt}")
    with run.tracer.span("simulate.generate", "setup"):
        sources = generate(run.seed)
    with run.tracer.span("formats.write", "setup"):
        directories = write_inputs(sources, root)
    return directories


def _read_sources(run: Run, directories: dict) -> dict:
    """Set-up ingest of the input directories, as a span."""
    with run.tracer.span("formats.read", "setup"):
        sources = read_inputs(directories)
    run.regions_read = sum(
        dataset.region_count() for dataset in sources.values()
    )
    return sources


def _setup_read_layers(run: Run, *names) -> dict:
    """Per-set-up means of ``formats.*`` and *names* set-up spans."""
    layers = _layer_means(
        run, ["formats.read", "formats.write", *names], SETUP_REPEATS,
        setup=True,
    )
    read_s = layers["formats.read"]
    out = {
        "formats.read_s": read_s,
        # The inputs are written once, not once per set-up.
        "formats.write_s": layers["formats.write"] * SETUP_REPEATS,
        "formats.read_regions_per_s": (
            run.regions_read / read_s if read_s else 0.0
        ),
    }
    out.update({f"{name}_s": layers[name] for name in names})
    return out


def _drop_inputs(directories: dict) -> None:
    for directory in directories.values():
        shutil.rmtree(os.path.dirname(directory), ignore_errors=True)


# -- cold_cli -----------------------------------------------------------------


def _cold_query(run: Run, program: str, directories: dict, out_dir: str,
                qid, traced: bool):
    """One `repro run --engine auto --out` equivalent; returns
    ``(latency seconds, results, counters)``."""
    from repro.engine.context import ExecutionContext
    from repro.engine.dispatch import get_backend
    from repro.formats import read_dataset, write_dataset
    from repro.gmql.lang import Interpreter, compile_program, optimize
    from repro.store.cache import reset_result_cache
    from repro.store.columnar import store_counters

    tracer = run.tracer if traced else _DISABLED
    blocks_before = store_counters()
    started = time.perf_counter()
    with tracer.span("query", qid):
        with tracer.span("formats.read", qid):
            sources = {
                name: read_dataset(directory, name)
                for name, directory in directories.items()
            }
        with tracer.span("lang.compile", qid):
            compiled = compile_program(program, datasets=sources)
        with tracer.span("lang.optimize", qid):
            compiled = optimize(compiled)
        backend = get_backend("auto")
        context = ExecutionContext(result_cache=True)
        reset_result_cache()
        try:
            interpreter = Interpreter(backend, sources, context=context)
            if traced:
                with tracer.span("store.digest", qid):
                    for dataset in sources.values():
                        dataset.store().digest()
                with tracer.span("store.zone_map", qid):
                    for dataset in sources.values():
                        dataset.store().zone_map()
            with tracer.span("lang.plan", qid):
                physical = interpreter.plan(compiled)
            with tracer.span("engine.execute", qid):
                results = interpreter.run_physical(physical)
        finally:
            backend.close()
        with tracer.span("formats.write", qid):
            for name, dataset in results.items():
                write_dataset(dataset, os.path.join(out_dir, name))
    latency = time.perf_counter() - started
    blocks_after = store_counters()
    if traced:
        # Probe, outside the query span: build every source sample's
        # blocks (the CLI path builds blocks only for derived datasets).
        with tracer.span("store.build", qid):
            for dataset in sources.values():
                store = dataset.store()
                for sample in dataset:
                    store.blocks(sample)
    counters = dict(context.metrics.snapshot())
    counters["regions_read"] = sum(
        dataset.region_count() for dataset in sources.values()
    )
    counters["regions_out"] = sum(
        dataset.region_count() for dataset in results.values()
    )
    for key in ("blocks_built", "blocks_mapped"):
        counters[key] = blocks_after[key] - blocks_before[key]
    return latency, results, counters


def cold_cli(run: Run):
    from repro.bench import PROGRAMS
    from repro.gdm.digest import results_digest

    setup_s, directories = _timed_setups(
        run, lambda attempt: _write_fresh_inputs(run, attempt), _drop_inputs
    )
    latencies, traced_lat, untraced_lat = [], [], []
    checks, totals = [], {}
    out_dir = run.scratch("out")
    qid = 0
    gc.collect()
    with PeakRss() as rss:
        for traced, compared in _rotations(run):
            for name in ROTATION:
                qid += 1
                latency, results, counters = _cold_query(
                    run, PROGRAMS[name], directories, out_dir, qid, traced
                )
                latencies.append(latency)
                run.record(name, latency)
                if compared:
                    (traced_lat if traced else untraced_lat).append(latency)
                with (run.tracer if traced else _DISABLED).span(
                    "gdm.results_digest", qid
                ):
                    digest = results_digest(results)
                checks.append((qid, name, digest))
                if traced:
                    for key, value in counters.items():
                        if isinstance(value, (int, float)):
                            totals[key] = totals.get(key, 0) + value
                del results
                shutil.rmtree(out_dir, ignore_errors=True)
    _drop_inputs(directories)
    for qid, name, digest in checks:
        expected = run.oracle.digest(PROGRAMS[name])
        run.check(
            digest == expected,
            f"cold_cli query {qid} ({name}): digest {digest} != "
            f"naive oracle {expected}",
        )
    end_to_end = _end_to_end(setup_s, latencies, sum(latencies), rss)
    if not run.tracer.enabled:
        return end_to_end, {}
    per = len(traced_lat)
    layers = _layer_means(run, [
        "formats.read", "formats.write", "lang.compile", "lang.optimize",
        "store.digest", "store.zone_map", "lang.plan", "store.build",
        "engine.execute", "gdm.results_digest",
    ], per)
    read_s = layers["formats.read"] * per
    hits = totals.get("result_cache.hits", 0)
    misses = totals.get("result_cache.misses", 0)
    per_layer = {f"{name}_s": value for name, value in layers.items()}
    per_layer.update({
        "formats.read_regions_per_s": (
            totals.get("regions_read", 0) / read_s if read_s else 0.0
        ),
        "store.blocks_built": totals.get("blocks_built", 0) / per,
        "store.blocks_mapped": totals.get("blocks_mapped", 0) / per,
        "store.partitions_pruned": (
            totals.get("store.partitions_pruned", 0) / per
        ),
        "engine.regions_out": totals.get("regions_out", 0) / per,
        "engine.shm_bytes_shared": totals.get("shm.bytes_shared", 0) / per,
        "engine.shm_bytes_pickled": totals.get("shm.bytes_pickled", 0) / per,
        "engine.shm_bytes_mapped": totals.get("shm.bytes_mapped", 0) / per,
        "cache.node_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
    })
    per_layer.update(_overhead(traced_lat, untraced_lat))
    return end_to_end, per_layer


# -- serve_warm ---------------------------------------------------------------


def serve_programs(data_cells: list) -> list:
    """The warm-server mix: ``[(weight, program text)]``.

    A program's Zipf-like weight is 1/(r+1), where r is the rank of its
    parameter in its family's vocabulary: (cell, aggregate) for MAP, the
    distance for JOIN, the minimum for COVER.  MAP cells rank the cells
    holding ChIP-seq peaks (*data_cells*) first, so the hottest MAP
    requests do the same work for every seed.
    """
    cells = list(data_cells) + [c for c in CELLS if c not in data_cells]
    maps = [
        _PROMOTERS
        + f"PEAKS = SELECT(dataType == 'ChipSeq' AND cell == '{cell}') "
        f"ENCODE;\nRESULT = MAP(v AS {aggregate}) PROMS PEAKS;\n"
        "MATERIALIZE RESULT;\n"
        for cell in cells for aggregate in MAP_AGGREGATES
    ]
    joins = [
        _PROMOTERS + _CHIPSEQ
        + f"RESULT = JOIN(DLE({distance}); output: LEFT) PROMS PEAKS;\n"
        "MATERIALIZE RESULT;\n"
        for distance in JOIN_DISTANCES
    ]
    covers = [
        _CHIPSEQ + f"RESULT = COVER({minimum}, ANY) PEAKS;\n"
        "MATERIALIZE RESULT;\n"
        for minimum in COVER_MINIMA
    ]
    return [
        (1.0 / (rank + 1), text)
        for family in (maps, joins, covers)
        for rank, text in enumerate(family)
    ]


def request_stream(weighted: list, seed: int):
    """Endless requests: successive seeded shuffles of one deck.

    The deck holds each program ``round(weight / lightest weight)``
    times, so every deck has the mix's shares exactly.  Independent
    draws made the JOIN share of a 22 s run range from 24% to 32% over
    five seeds, and with it the mean work per request by about 15%.
    """
    lightest = min(weight for weight, _ in weighted)
    deck = [
        text for weight, text in weighted
        for _ in range(round(weight / lightest))
    ]
    rng = random.Random(seed)
    while True:
        rng.shuffle(deck)
        yield from deck


def _family(program: str) -> str:
    for family in ("MAP", "JOIN", "COVER"):
        if f"= {family}(" in program:
            return family.lower()
    return "other"


def _make_warm_state_class(tracer):
    from repro.serve import WarmState

    class TracedWarmState(WarmState):
        """A warm state whose program compiles are spans."""

        def compile(self, program: str):
            with tracer.span("lang.compile", "server"):
                return super().compile(program)

    return TracedWarmState


def _start_pool_workers(state) -> None:
    """Fork the shared pool's workers while this is the only thread.

    ``repro serve`` forks them lazily, from the scheduler thread that
    first submits a morsel, under live server, scheduler and client
    threads.  Workers forked that way have deadlocked (both blocked on a
    futex, never taking a morsel, so the query waits forever) in 2 of 18
    runs; set-up therefore pays for them up front, and ``setup_s`` holds
    the fork cost that ``repro serve`` pays on its first query.
    """
    from repro.engine.parallel import default_workers

    pool = state.shared_pool()
    if pool is not None:
        futures = [
            pool.submit(time.sleep, 0.05) for _ in range(default_workers())
        ]
        for future in futures:
            future.result()


def _traced_digest(tracer, digest_function):
    def traced(results):
        with tracer.span("gdm.results_digest", "server"):
            return digest_function(results)

    return traced


def serve_warm(run: Run):
    from repro.serve import QueryServer, ServeClient, ServerThread
    from repro.serve import scheduler as scheduler_module
    from repro.store.cache import reset_result_cache

    tracer = run.tracer
    warm_state_class = _make_warm_state_class(tracer)
    directories = _write_fresh_inputs(run, 0)

    def boot(attempt):
        sources = _read_sources(run, directories)
        state = warm_state_class(
            sources, engine="auto", result_cache_enabled=True
        )
        with tracer.span("store.build", "setup"):
            state.warm()
        _start_pool_workers(state)
        reset_result_cache()
        thread = ServerThread(QueryServer(state, max_concurrency=2))
        thread.start()
        # Ready means answering: a stop() that lands between start() and
        # the server loop's run_forever() is lost, so set-up waits for
        # the first health check.
        with ServeClient(port=thread.port) as client:
            if client.healthz().status != 200:
                raise RuntimeError("server failed its health check")
        return thread

    original_digest = scheduler_module.results_digest
    if tracer.enabled:
        scheduler_module.results_digest = _traced_digest(
            tracer, original_digest
        )
    try:
        setup_s, server = _timed_setups(
            run, boot, lambda thread: thread.stop()
        )
        try:
            primed, records, elapsed, rss, stats = _drive_server(
                run, server.port
            )
        finally:
            server.stop()
    finally:
        scheduler_module.results_digest = original_digest
        _drop_inputs(directories)
        reset_result_cache()
    for kind, batch in (("priming request", primed), ("request", records)):
        for index, record in enumerate(batch):
            ok = record["status"] == 200
            if ok:
                expected = run.oracle.digest(record["program"])
                ok = record["digest"] == expected
            run.check(ok, (
                f"serve_warm {kind} {index}: status {record['status']}, "
                f"digest {record.get('digest')} "
                f"(oracle {run.oracle.digests.get(record['program'])})"
            ))
    latencies = [record["latency"] for record in records]
    for record in records:
        run.record(_family(record["program"]), record["latency"])
    end_to_end = _end_to_end(setup_s, latencies, elapsed, rss)
    if not tracer.enabled:
        return end_to_end, {}
    served = [record for record in records if record["status"] == 200]
    queued = [record["queued_ms"] for record in served]
    executed = [record["execute_ms"] for record in served]
    overhead = [
        record["latency"] * 1000 - record["queued_ms"] - record["execute_ms"]
        for record in served
    ]
    hits = sum(record["hits"] for record in served)
    misses = sum(record["misses"] for record in served)
    state_stats = stats["state"]
    compile_total = (
        state_stats["compile_hits"] + state_stats["compile_misses"]
    )
    n = len(records)
    layers = _layer_means(run, ["lang.compile", "gdm.results_digest"], n)
    per_layer = _setup_read_layers(run, "store.build")
    per_layer.update({
        "lang.compile_s": layers["lang.compile"],
        "gdm.results_digest_s": layers["gdm.results_digest"],
        "engine.execute_s": max(
            0.0, sum(executed) / 1000 / n - layers["gdm.results_digest"]
        ),
        "engine.regions_out": sum(record["regions"] for record in served) / n,
        "cache.node_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "cache.request_full_hit_ratio": sum(
            1 for record in served if record["misses"] == 0
        ) / n,
        "serve.compile_hit_ratio": (
            state_stats["compile_hits"] / compile_total
            if compile_total else 0.0
        ),
        "serve.coalesced": sum(1 for record in served if record["coalesced"]),
        "serve.rejected": n - len(served),
        "serve.queued_ms_p50": percentile(queued, 0.5),
        "serve.queued_ms_p90": percentile(queued, 0.9),
        "serve.execute_ms_p50": percentile(executed, 0.5),
        "serve.overhead_ms_p50": percentile(overhead, 0.5),
    })
    per_layer.update(_overhead(
        [record["latency"] for record in records if record["traced"]],
        [record["latency"] for record in records if not record["traced"]],
    ))
    return end_to_end, per_layer


def _prime(port: int, programs) -> list:
    """Send every program of the mix once, untimed; returns the records.

    A resident server has long since seen its regular programs.  Without
    this, each program's first run (a result-cache miss of up to seconds)
    would fall inside the measured phase and take a share of it that
    grows as the machine slows, so the figures would swing with the
    machine far more than the hit path they are meant to measure.
    """
    from repro.serve import ServeClient

    records = []
    with ServeClient(port=port) as client:
        for program in programs:
            start = time.perf_counter()
            response = client.query(program)
            records.append(_response_record(
                program, response, time.perf_counter() - start, False
            ))
    return records


def _drive_server(run: Run, port: int):
    """Two closed-loop clients for ``run.seconds``; returns the records
    of the priming requests and of the measured ones.

    The measured requests come from :func:`request_stream` over the
    :func:`serve_programs` mix.
    """
    from repro.serve import ServeClient

    weighted = serve_programs(chipseq_cells(run.seed))
    primed = _prime(port, [text for _, text in weighted])
    stream = request_stream(weighted, run.seed)
    records: list = []
    lock = threading.Lock()
    errors: list = []
    started = time.perf_counter()
    issued = itertools.count()

    def next_program():
        with lock:
            if time.perf_counter() - started >= run.seconds:
                return None, None
            return next(stream), next(issued)

    def client_loop():
        tracer = run.tracer
        try:
            with ServeClient(port=port) as client:
                while True:
                    program, index = next_program()
                    if program is None:
                        return
                    # Every other request records client spans, which
                    # measures the tracing overhead within the run.
                    traced = tracer.enabled and index % 2 == 0
                    start = time.perf_counter()
                    response = client.query(program)
                    end = time.perf_counter()
                    record = _response_record(
                        program, response, end - start, traced
                    )
                    if traced:
                        _record_request_spans(tracer, record, start, end)
                    with lock:
                        records.append(record)
        except Exception as exc:  # surfaced after the clients join
            errors.append(exc)

    gc.collect()
    with PeakRss() as rss:
        started = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    with ServeClient(port=port) as client:
        stats = client.stats().payload
    return primed, records, elapsed, rss, stats


def _response_record(program, response, latency, traced) -> dict:
    payload = response.payload
    timing = payload.get("timing", {})
    cache = payload.get("cache", {})
    return {
        "program": program,
        "status": response.status,
        "latency": latency,
        "traced": traced,
        "digest": payload.get("digest"),
        "queued_ms": timing.get("queued_ms", 0.0),
        "execute_ms": timing.get("execute_ms", 0.0),
        "hits": cache.get("hits", 0),
        "misses": cache.get("misses", 0),
        "coalesced": bool(payload.get("coalesced")),
        "regions": sum(
            output.get("regions", 0)
            for output in payload.get("outputs", {}).values()
        ),
    }


def _record_request_spans(tracer, record, start, end) -> None:
    """The request as a span; the response's timing fields as children."""
    qid = f"request-{id(record)}"
    parent = tracer.add("serve.request", start, end, qid)
    queued_end = start + record["queued_ms"] / 1000
    tracer.add("serve.queued", start, queued_end, qid, parent=parent)
    tracer.add(
        "serve.execute", queued_end,
        queued_end + record["execute_ms"] / 1000, qid, parent=parent,
    )


# -- cluster_sharded ----------------------------------------------------------


def cluster_sharded(run: Run):
    from repro.bench import PROGRAMS
    from repro.engine.context import ExecutionContext
    from repro.federation import LocalCluster
    from repro.gdm.digest import results_digest

    tracer = run.tracer
    directories = _write_fresh_inputs(run, 0)
    context = ExecutionContext()

    def boot(attempt):
        sources = _read_sources(run, directories)
        store_root = run.scratch(f"store-{attempt}")
        os.makedirs(store_root)
        with tracer.span("federation.boot", "setup"):
            cluster = LocalCluster(
                sources, nodes=2, store_root=store_root, context=context,
                seed=run.seed,
            )
        return cluster, store_root

    def teardown(state):
        cluster, store_root = state
        cluster.close()
        shutil.rmtree(store_root, ignore_errors=True)

    setup_s, state = _timed_setups(run, boot, teardown)
    cluster = state[0]
    latencies, traced_lat, untraced_lat = [], [], []
    checks, samples = [], []
    qid = 0
    try:
        gc.collect()
        with PeakRss() as rss:
            for traced, compared in _rotations(run):
                for name in ("join", "map_avg", "cover"):
                    qid += 1
                    before = dict(context.metrics.snapshot())
                    start = time.perf_counter()
                    outcome = cluster.run(PROGRAMS[name])
                    end = time.perf_counter()
                    latency = end - start
                    latencies.append(latency)
                    run.record(name, latency)
                    if compared:
                        (traced_lat if traced else untraced_lat).append(
                            latency
                        )
                    if traced:
                        _record_cluster_spans(tracer, outcome, start, end, qid)
                    with (tracer if traced else _DISABLED).span(
                        "gdm.results_digest", qid
                    ):
                        digest = results_digest(outcome.datasets or {})
                    checks.append((qid, name, digest, outcome.degraded))
                    after = context.metrics.snapshot()
                    samples.append(_cluster_sample(
                        outcome, latency, before, after, traced
                    ))
                    del outcome
    finally:
        teardown(state)
        _drop_inputs(directories)
    for qid, name, digest, degraded in checks:
        expected = run.oracle.digest(PROGRAMS[name])
        run.check(
            digest == expected and not degraded,
            f"cluster_sharded query {qid} ({name}): digest {digest} "
            f"(naive oracle {expected}), degraded={degraded}",
        )
    end_to_end = _end_to_end(setup_s, latencies, sum(latencies), rss)
    if not tracer.enabled:
        return end_to_end, {}
    traced_samples = [sample for sample in samples if sample["traced"]]
    per = len(traced_samples)

    def mean(key):
        return sum(sample[key] for sample in traced_samples) / per

    layers = _layer_means(run, ["gdm.results_digest"], per)
    per_layer = _setup_read_layers(run, "federation.boot")
    per_layer.update({
        "gdm.results_digest_s": layers["gdm.results_digest"],
        "federation.critical_path_s": mean("critical_path"),
        "federation.node_s_max": mean("node_max"),
        "federation.imbalance": mean("imbalance"),
        "federation.merge_s": mean("merge"),
        "federation.transport_s": mean("transport"),
        "federation.bytes_streamed": mean("bytes_streamed"),
        "federation.bytes_mapped": mean("bytes_mapped"),
        "federation.shards_placed": mean("shards_placed"),
        "engine.regions_out": mean("regions_out"),
    })
    per_layer.update(_overhead(traced_lat, untraced_lat))
    return end_to_end, per_layer


def _cluster_sample(outcome, latency, before, after, traced) -> dict:
    nodes = list(outcome.node_seconds.values()) or [0.0]
    node_mean = sum(nodes) / len(nodes)

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    return {
        "traced": traced,
        "critical_path": outcome.cluster_seconds(),
        "node_max": max(nodes),
        "imbalance": max(nodes) / node_mean if node_mean else 0.0,
        "merge": outcome.merge_seconds,
        "transport": latency - outcome.cluster_seconds(),
        "bytes_streamed": delta("federation.bytes_streamed"),
        "bytes_mapped": delta("federation.bytes_mapped"),
        "shards_placed": delta("federation.shards_placed"),
        "regions_out": sum(
            dataset.region_count()
            for dataset in (outcome.datasets or {}).values()
        ),
    }


def _record_cluster_spans(tracer, outcome, start, end, qid) -> None:
    """The sharded run as a span; node and merge times as children.

    Nodes run concurrently from the start of the call; the merge ends
    the call.  What the children leave uncovered is transport and
    client-side planning.
    """
    parent = tracer.add("federation.run", start, end, qid)
    for node, seconds in sorted(outcome.node_seconds.items()):
        tracer.add("federation.node", start, start + seconds, qid,
                   parent=parent, node=node)
    tracer.add("federation.merge", end - outcome.merge_seconds, end, qid,
               parent=parent)


_DISABLED = Tracer(enabled=False)

WORKLOADS = {
    "cold_cli": cold_cli,
    "serve_warm": serve_warm,
    "cluster_sharded": cluster_sharded,
}
