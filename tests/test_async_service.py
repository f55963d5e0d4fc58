"""Tests for the asyncio front end (AsyncValidationService).

The wrapper must stay a thin, state-sharing veneer: results under heavy
``asyncio.gather`` concurrency are identical to the serial reference, the
concurrency bound is honored, and stats/caches are those of the wrapped
synchronous service.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.datalake.domains import DOMAIN_REGISTRY
from repro.index.store import save_index
from repro.service import AsyncValidationService, ValidationService


def _column(name: str, seed: int, n: int = 40) -> list[str]:
    return DOMAIN_REGISTRY[name].sample_many(random.Random(seed), n)


NAMES = ["datetime_slash", "guid", "phone_us", "locale_lower",
         "status", "zip9", "currency_usd", "time_hms"]


@pytest.fixture()
def service(small_index, small_config):
    return ValidationService(
        small_index, small_config, variant="fmdv", parallel_backend="serial"
    )


def test_gather_32_concurrent_callers_matches_serial(service):
    """32 overlapping callers on 8 distinct columns: every result equals
    the serial reference and the counters account for all 32 lookups."""
    columns = [_column(name, 40 + i) for i, name in enumerate(NAMES)] * 4
    reference = ValidationService(
        service.index, service.config, variant="fmdv", parallel_backend="serial"
    ).infer_many(columns)

    async def run():
        async_svc = AsyncValidationService(service, max_concurrency=32)
        return await asyncio.gather(*(async_svc.infer(col) for col in columns))

    results = asyncio.run(run())
    assert list(results) == reference
    stats = service.stats()
    assert stats.inferences == 32
    # 8 distinct columns: repeats overwhelmingly hit the result cache
    # (simultaneous first-misses on one column may each compute, so the
    # exact count depends on thread scheduling — but most must hit).
    assert stats.result_cache_hits >= 16
    assert stats.result_cache_size == 8


def test_concurrent_repeats_share_one_canonical_result(service):
    """All callers of one column receive the same cached object once the
    first insert lands (insert-if-absent semantics)."""
    column = _column("guid", 50)

    async def run():
        async_svc = AsyncValidationService(service, max_concurrency=8)
        return await asyncio.gather(*(async_svc.infer(column) for _ in range(16)))

    results = asyncio.run(run())
    assert len({id(r) for r in results}) <= 2  # racing first computes at most
    assert len({r.rule.pattern.key() for r in results if r.found}) == 1


def test_semaphore_bounds_in_flight_calls(service):
    """With max_concurrency=N, never more than N calls run simultaneously."""
    in_flight = 0
    peak = 0
    real_infer = service.infer

    def tracked_infer(values, variant=None):
        nonlocal in_flight, peak
        in_flight += 1
        peak = max(peak, in_flight)
        try:
            return real_infer(values, variant)
        finally:
            in_flight -= 1

    service.infer = tracked_infer
    columns = [_column(name, 60 + i) for i, name in enumerate(NAMES)] * 2

    async def run():
        async_svc = AsyncValidationService(service, max_concurrency=3)
        await asyncio.gather(*(async_svc.infer(col) for col in columns))

    asyncio.run(run())
    assert 1 <= peak <= 3


def test_async_infer_many_and_validate(service, rng):
    async def run():
        async with AsyncValidationService(service, max_concurrency=4) as async_svc:
            results = await async_svc.infer_many(
                [_column("datetime_slash", 70), _column("locale_lower", 71)]
            )
            rule = results[0].rule
            assert rule is not None
            good = DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30)
            bad = DOMAIN_REGISTRY["locale_lower"].sample_many(rng, 30)
            report_good = await async_svc.validate(rule, good)
            reports = await async_svc.validate_many(rule, [good, bad])
            return report_good, reports

    report_good, reports = asyncio.run(run())
    assert not report_good.flagged
    assert reports[0] == report_good
    assert reports[1].flagged


def test_from_path_and_stats_passthrough(small_index, small_config, tmp_path):
    out = tmp_path / "async.v2"
    save_index(small_index, out, format="v2", n_shards=4)

    async def run():
        async_svc = AsyncValidationService.from_path(
            out, small_config, max_concurrency=4, variant="fmdv",
            parallel_backend="serial",
        )
        result = await async_svc.infer(_column("guid", 80))
        return async_svc, result

    async_svc, result = asyncio.run(run())
    assert result.found
    assert async_svc.stats() == async_svc.service.stats()
    assert async_svc.stats().inferences == 1


def test_rejects_nonpositive_concurrency(service):
    with pytest.raises(ValueError):
        AsyncValidationService(service, max_concurrency=0)


def test_concurrent_parallel_batches_share_one_pool(small_index, small_config):
    """Two overlapping infer_many batches on a process-backed service must
    both complete correctly — neither cancels the other's futures nor
    leaks a second pool (the pool-lifecycle race)."""
    service = ValidationService(
        small_index, small_config, variant="fmdv",
        workers=2, min_batch_for_parallel=2, parallel_backend="process",
    )
    batch_a = [_column(name, 90 + i) for i, name in enumerate(NAMES[:4])]
    batch_b = [_column(name, 95 + i) for i, name in enumerate(NAMES[4:])]

    async def run():
        async_svc = AsyncValidationService(service, max_concurrency=4)
        return await asyncio.gather(
            async_svc.infer_many(batch_a), async_svc.infer_many(batch_b)
        )

    with service:
        results_a, results_b = asyncio.run(run())
        assert service.stats().parallel_batches == 2
    reference = ValidationService(
        small_index, small_config, variant="fmdv", parallel_backend="serial"
    )
    assert results_a == reference.infer_many(batch_a)
    assert results_b == reference.infer_many(batch_b)
