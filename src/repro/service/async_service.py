"""Asyncio front end for the validation service.

Serving deployments (the paper's §7 production story) sit the inference
path behind an event loop.  :class:`AsyncValidationService` wraps a
:class:`~repro.service.service.ValidationService` and exposes awaitable
``infer``/``validate`` methods: each call runs the synchronous (thread-safe)
service method on the default thread pool via :func:`asyncio.to_thread`,
with a bounded-concurrency semaphore so a traffic spike cannot pile an
unbounded number of CPU-bound inferences onto the executor at once.

Batches still go through the service's parallel engine — ``infer_many``
awaits one thread that fans the batch across worker *processes* — so the
event loop gets true multi-core throughput while individual ``infer`` calls
interleave fairly.

Typical use::

    service = ValidationService.from_path("lake.idx")
    async_svc = AsyncValidationService(service, max_concurrency=32)
    results = await asyncio.gather(*(async_svc.infer(col) for col in feed))
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.config import DEFAULT_CONFIG, AutoValidateConfig
from repro.service.service import ServiceStats, ValidationService
from repro.validate.fmdv import InferenceResult
from repro.validate.rule import ValidationReport, ValidationRule


class AsyncValidationService:
    """Bounded-concurrency asyncio wrapper around a validation service.

    The wrapper owns no caches of its own — results, statistics and cache
    generations all live in (and are shared with) the underlying
    synchronous service, so sync and async callers of one service observe
    one coherent state.
    """

    def __init__(self, service: ValidationService, max_concurrency: int = 32) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.service = service
        self.max_concurrency = max_concurrency
        self._semaphore = asyncio.Semaphore(max_concurrency)

    @classmethod
    def from_path(
        cls,
        index_path: str | Path,
        config: AutoValidateConfig = DEFAULT_CONFIG,
        max_concurrency: int = 32,
        **kwargs: Any,
    ) -> "AsyncValidationService":
        """Open an async service over a saved index (any registered format)."""
        return cls(
            ValidationService.from_path(index_path, config, **kwargs),
            max_concurrency=max_concurrency,
        )

    async def infer(
        self, values: Sequence[str], variant: str | None = None
    ) -> InferenceResult:
        """Awaitable :meth:`ValidationService.infer` (semaphore-bounded)."""
        async with self._semaphore:
            return await asyncio.to_thread(self.service.infer, values, variant)

    async def infer_many(
        self,
        columns: Iterable[Sequence[str]],
        variant: str | None = None,
        workers: int | None = None,
    ) -> list[InferenceResult]:
        """Awaitable batch inference.

        The batch counts as *one* unit against the concurrency bound; the
        service decides internally whether it fans out across processes.
        """
        batch = [list(values) for values in columns]
        async with self._semaphore:
            return await asyncio.to_thread(
                self.service.infer_many, batch, variant, workers
            )

    async def validate(
        self, rule: ValidationRule, values: Sequence[str]
    ) -> ValidationReport:
        """Awaitable single-column validation."""
        async with self._semaphore:
            return await asyncio.to_thread(self.service.validate, rule, values)

    async def validate_many(
        self,
        rules: ValidationRule | Sequence[ValidationRule],
        columns: Sequence[Sequence[str]],
        workers: int | None = None,
    ) -> list[ValidationReport]:
        """Awaitable batch validation (one unit against the bound)."""
        async with self._semaphore:
            return await asyncio.to_thread(
                self.service.validate_many, rules, columns, workers
            )

    @property
    def default_variant(self) -> str:
        """Canonical name of the variant un-annotated requests run."""
        return self.service.variant

    def set_default_variant(self, variant: str) -> None:
        """Hot-swap the default variant on the wrapped service (the
        ``/admin/config`` path); caches stay warm."""
        self.service.set_default_variant(variant)

    def stats(self) -> ServiceStats:
        """Stats of the wrapped service (non-blocking: counters only)."""
        return self.service.stats()

    async def aclose(self) -> None:
        """Shut down the wrapped service's worker pool."""
        await asyncio.to_thread(self.service.close)

    async def __aenter__(self) -> "AsyncValidationService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
