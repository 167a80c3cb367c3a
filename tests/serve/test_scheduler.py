"""Scheduler: concurrent byte-identity, coalescing, deadlines, pools."""

import asyncio
import multiprocessing

import pytest

from repro.engine.context import ExecutionContext
from repro.errors import ExecutionCancelled, GmqlCompileError
from repro.gdm import Dataset
from repro.resilience.clock import SimulatedClock
from repro.serve.scheduler import QueryScheduler
from repro.serve.state import WarmState
from repro.store.cache import reset_result_cache

from tests.serve.util import (
    P_COVER,
    P_MAP,
    P_SELECT,
    make_sources,
    naive_digest,
    reference_digests,
)


@pytest.fixture(autouse=True)
def isolated_cache():
    reset_result_cache()
    yield
    reset_result_cache()


def run_scenario(coro_factory, engine="columnar", workers=None,
                 max_concurrency=3):
    """Drive one scheduler scenario on a fresh event loop.

    ``coro_factory(scheduler)`` returns the coroutine to run; the
    scheduler is drained and its slots closed before the loop exits.
    """
    state = WarmState(make_sources(), engine=engine, workers=workers,
                      result_cache_enabled=True)
    state.warm()

    async def main():
        scheduler = QueryScheduler(state, max_concurrency=max_concurrency)
        try:
            return await coro_factory(scheduler), scheduler.stats()
        finally:
            await scheduler.aclose()

    try:
        return asyncio.run(main())
    finally:
        state.close()


def no_deadline_context():
    return ExecutionContext(result_cache=True)


class TestConcurrentByteIdentity:
    def test_identical_and_distinct_in_flight_match_single_shot(self):
        """Satellite check: N identical + M distinct concurrent queries
        come back byte-identical to fresh single-shot naive runs."""
        sources = make_sources()
        expected = reference_digests(sources)

        async def scenario(scheduler):
            jobs = [scheduler.run(P_MAP, context=no_deadline_context())
                    for _ in range(4)]
            jobs += [scheduler.run(program,
                                   context=no_deadline_context())
                     for program in (P_SELECT, P_COVER)]
            return await asyncio.gather(*jobs)

        outcomes, stats = run_scenario(scenario)
        map_outcomes, select_outcome, cover_outcome = (
            outcomes[:4], outcomes[4], outcomes[5]
        )
        for outcome in map_outcomes:
            assert outcome.digest == expected[P_MAP]
        assert select_outcome.digest == expected[P_SELECT]
        assert cover_outcome.digest == expected[P_COVER]
        # the identical MAPs coalesced onto one execution
        assert sum(o.coalesced for o in map_outcomes) == 3
        assert stats["coalesced"] == 3
        assert stats["queries"] == 3  # one MAP + SELECT + COVER
        assert stats["active"] == 0
        assert stats["failures"] == 0

    def test_deadline_bearing_requests_never_coalesce(self):
        async def scenario(scheduler):
            contexts = [
                ExecutionContext(timeout_seconds=30.0, result_cache=True)
                for _ in range(3)
            ]
            return await asyncio.gather(
                *(scheduler.run(P_SELECT, context=c) for c in contexts)
            )

        outcomes, stats = run_scenario(scenario)
        assert stats["coalesced"] == 0
        assert stats["queries"] == 3
        assert len({o.digest for o in outcomes}) == 1


class TestResultCache:
    def test_repeat_query_hits_fingerprint_cache(self):
        async def scenario(scheduler):
            first = await scheduler.run(
                P_COVER, context=no_deadline_context()
            )
            second = await scheduler.run(
                P_COVER, context=no_deadline_context()
            )
            return first, second

        (first, second), _ = run_scenario(scenario)
        assert first.digest == second.digest
        assert first.cache_hits == 0
        assert second.cache_hits >= 1  # warm fingerprint cache served it

    @pytest.mark.parametrize("program", [P_SELECT, P_COVER, P_MAP])
    def test_hit_walks_no_rows(self, program, monkeypatch):
        """A result-cache hit is digested and planned from memoised
        per-content facts: no region row or shard walk at all."""
        expected = naive_digest(program, make_sources())
        walks = {"rows": 0, "shards": 0}
        region_rows = Dataset.region_rows
        walk_shards = Dataset._walk_shards

        def counting_rows(self):
            walks["rows"] += 1
            return region_rows(self)

        def counting_shards(self):
            walks["shards"] += 1
            return walk_shards(self)

        monkeypatch.setattr(Dataset, "region_rows", counting_rows)
        monkeypatch.setattr(Dataset, "_walk_shards", counting_shards)

        async def scenario(scheduler):
            first = await scheduler.run(program,
                                        context=no_deadline_context())
            walks.update(rows=0, shards=0)
            second = await scheduler.run(program,
                                         context=no_deadline_context())
            return first, second

        (first, second), _ = run_scenario(scenario)
        assert second.cache_hits >= 1 and second.cache_misses == 0
        assert walks == {"rows": 0, "shards": 0}
        assert first.digest == second.digest == expected

    def test_coalesced_followers_report_shared_outcome(self):
        async def scenario(scheduler):
            return await asyncio.gather(
                *(scheduler.run(P_SELECT, context=no_deadline_context())
                  for _ in range(5))
            )

        outcomes, stats = run_scenario(scenario)
        assert stats["queries"] == 1
        assert [o.coalesced for o in outcomes].count(True) == 4
        assert len({o.digest for o in outcomes}) == 1


class TestDeadlines:
    def test_deadline_expired_in_queue_rejected_before_execution(self):
        clock = SimulatedClock()
        context = ExecutionContext(
            timeout_seconds=5.0, result_cache=False, clock=clock
        )
        clock.advance(10.0)  # budget gone before the scheduler sees it

        async def scenario(scheduler):
            with pytest.raises(ExecutionCancelled):
                await scheduler.run(P_MAP, context=context)
            return None

        _, stats = run_scenario(scenario)
        assert not context.tracer.roots  # nothing executed, not even a span
        assert stats["failures"] == 1
        assert stats["queries"] == 0


class TestRejectionAndLifecycle:
    def test_compile_error_raises_without_occupying_a_slot(self):
        async def scenario(scheduler):
            with pytest.raises(GmqlCompileError):
                await scheduler.run(
                    "OUT = SELECT(region: bogus == 1) EXP; "
                    "MATERIALIZE OUT;",
                    context=no_deadline_context(),
                )
            return None

        _, stats = run_scenario(scenario)
        assert stats["queries"] == 0
        # a compile rejection is not an execution failure
        assert stats["failures"] == 0

    def test_closed_scheduler_refuses_work(self):
        async def main():
            state = WarmState(make_sources(), engine="columnar")
            scheduler = QueryScheduler(state, max_concurrency=1)
            await scheduler.aclose()
            await scheduler.aclose()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                await scheduler.run(P_SELECT)
            state.close()

        asyncio.run(main())

    def test_slots_are_bounded_and_reused(self):
        async def scenario(scheduler):
            return await asyncio.gather(
                *(scheduler.run(program, context=no_deadline_context())
                  for program in (P_SELECT, P_COVER, P_MAP) * 3)
            )

        outcomes, stats = run_scenario(scenario, max_concurrency=2)
        assert len(outcomes) == 9
        assert stats["slots_created"] <= 2


class TestWorkerPoolLifecycle:
    def test_no_worker_processes_leak_after_shutdown(self):
        """Satellite check: shared-pool engines leave no children behind
        once the scheduler and warm state close."""
        sources = make_sources()
        expected = reference_digests(sources)

        async def scenario(scheduler):
            return await asyncio.gather(
                *(scheduler.run(P_MAP, context=no_deadline_context())
                  for _ in range(2))
            )

        outcomes, _ = run_scenario(
            scenario, engine="parallel", workers=2, max_concurrency=2
        )
        for outcome in outcomes:
            assert outcome.digest == expected[P_MAP]
        assert multiprocessing.active_children() == []
