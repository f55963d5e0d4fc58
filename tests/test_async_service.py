"""The validation service under asyncio, the way the HTTP server drives it.

``ValidationHTTPServer`` runs service calls on the default thread pool
(``asyncio.to_thread``) behind a ``max_concurrency`` semaphore.  Results
under heavy ``asyncio.gather`` concurrency must be identical to the serial
reference, the concurrency bound must be honored, and stats/caches are
those of the one shared service.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.api.wire import InferRequest
from repro.datalake.domains import DOMAIN_REGISTRY
from repro.server import ValidationHTTPServer
from repro.service import ValidationService


def _column(name: str, seed: int, n: int = 40) -> list[str]:
    return DOMAIN_REGISTRY[name].sample_many(random.Random(seed), n)


NAMES = ["datetime_slash", "guid", "phone_us", "locale_lower",
         "status", "zip9", "currency_usd", "time_hms"]


@pytest.fixture()
def service(small_index, small_config):
    return ValidationService(small_index, small_config, variant="fmdv")


def test_gather_32_concurrent_callers_matches_serial(service):
    """32 overlapping callers on 8 distinct columns: every result equals
    the serial reference and the counters account for all 32 lookups."""
    columns = [_column(name, 40 + i) for i, name in enumerate(NAMES)] * 4
    reference = ValidationService(
        service.index, service.config, variant="fmdv"
    ).infer_many(columns)

    async def run():
        return await asyncio.gather(
            *(asyncio.to_thread(service.infer, col) for col in columns)
        )

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
        return await asyncio.gather(
            *(asyncio.to_thread(service.infer, column) for _ in range(16))
        )

    results = asyncio.run(run())
    assert len({id(r) for r in results}) <= 2  # racing first computes at most
    assert len({r.rule.pattern.key() for r in results if r.found}) == 1


def test_semaphore_bounds_in_flight_calls(service):
    """With max_concurrency=N, the server never runs more than N service
    calls at once."""
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
    server = ValidationHTTPServer(service, max_concurrency=3)

    async def run():
        return await asyncio.gather(*(
            server._dispatch(
                "POST", "/v1/infer", {},
                InferRequest(values=tuple(col)).to_json().encode(), None,
            )
            for col in columns
        ))

    responses = asyncio.run(run())
    assert [status for status, _, _ in responses] == [200] * len(columns)
    assert 1 <= peak <= 3


def test_async_infer_many_and_validate(service, rng):
    async def run():
        results = await asyncio.to_thread(
            service.infer_many,
            [_column("datetime_slash", 70), _column("locale_lower", 71)],
        )
        rule = results[0].rule
        assert rule is not None
        good = DOMAIN_REGISTRY["datetime_slash"].sample_many(rng, 30)
        bad = DOMAIN_REGISTRY["locale_lower"].sample_many(rng, 30)
        report_good = await asyncio.to_thread(service.validate, rule, good)
        reports = await asyncio.to_thread(service.validate_many, rule, [good, bad])
        return report_good, reports

    report_good, reports = asyncio.run(run())
    assert not report_good.flagged
    assert reports[0] == report_good
    assert reports[1].flagged


def test_rejects_nonpositive_concurrency(service):
    with pytest.raises(ValueError):
        ValidationHTTPServer(service, max_concurrency=0)
