"""``repro.api`` — the versioned public facade of the library.

Three layers, all stable under :data:`API_VERSION`:

* **Protocol** — :class:`Validator`, the single runtime-checkable contract
  every inference engine satisfies (FMDV family, hybrid, dictionary,
  numeric, and the Figure-10 baselines).
* **Registry** — :func:`get_validator` resolves a string name to a ready
  validator; :func:`register_validator` adds third-party engines.  The
  CLI, the service layer and the evaluation runner all dispatch through
  it.
* **Wire** — the envelope types (:class:`InferRequest`,
  :class:`InferResponse`, :class:`ValidateRequest`,
  :class:`ValidateResponse`, :class:`BatchEnvelope`,
  :class:`AdminConfigRequest`/:class:`AdminConfigResponse`,
  :class:`ErrorResponse`) with deterministic, versioned
  ``to_json``/``from_json``.  Schema reference: ``src/repro/api/WIRE.md``.
* **Stores** — index persistence behind the runtime-checkable
  :class:`IndexStore` protocol: :func:`open_index` /
  :func:`save_index` / :func:`merge_many` dispatch on the registered
  format (v2 sharded JSON, v3 mmap binary; legacy v1 files read-only);
  :func:`register_store` adds third-party layouts.  Byte layout
  reference: ``src/repro/index/FORMAT.md``.

Quickstart::

    from repro.api import get_validator, InferRequest

    v = get_validator("fmdv-vh", index=index)
    result = v.infer(train_values)          # unified InferenceResult
    wire = result.to_json()                 # lossless round-trip

The monitoring surface is re-exported here too: the loop itself
(:class:`WatchService`, :class:`Alert`, the ``Watch*`` wire envelopes)
and its HTTP edge (:class:`WatchHTTPServer`).  The watch classes resolve
lazily (PEP 562):
``repro.watch`` imports ``repro.api.wire``, so an eager import here would
be circular — and the facade stays cheap to import for users who never
monitor anything.
"""

from repro.api.protocol import Validator
from repro.api.registry import (
    SOLVER_CLASSES,
    available_validators,
    get_validator,
    register_validator,
    resolve_name,
    validator_summary,
)
from repro.api.wire import (
    WIRE_VERSION,
    AdminConfigRequest,
    AdminConfigResponse,
    BatchEnvelope,
    ErrorResponse,
    InferRequest,
    InferResponse,
    ValidateRequest,
    ValidateResponse,
    WatchAlertsResponse,
    WatchRefreshRequest,
    WatchRefreshResponse,
    WatchRegisterRequest,
    WatchRegisterResponse,
    WatchStatusResponse,
    WireError,
)
from repro.index.store import (
    IndexStore,
    available_formats,
    get_store,
    merge_many,
    open_index,
    register_store,
    save_index,
)
from repro.validate.result import (
    InferenceResult,
    RuleSerializationError,
    rule_from_payload,
    rule_to_payload,
)

#: Version prefix of the served HTTP routes (``/v1/...``) and of this facade.
API_VERSION = "v1"

#: Watch-layer names re-exported lazily (PEP 562): ``repro.watch`` imports
#: ``repro.api.wire``, so importing it eagerly here would be circular.
_WATCH_EXPORTS = {
    "Alert": "repro.watch.alerts",
    "AlertLog": "repro.watch.alerts",
    "BaselineDecision": "repro.watch.baseline",
    "ColumnBaseline": "repro.watch.baseline",
    "Observation": "repro.watch.timeseries",
    "TimeSeriesStore": "repro.watch.timeseries",
    "WatchHTTPServer": "repro.watch.server",
    "WatchRegistry": "repro.watch.registry",
    "WatchService": "repro.watch.service",
    "render_report": "repro.watch.report",
}


def __getattr__(name: str):
    module_name = _WATCH_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_WATCH_EXPORTS))


__all__ = [
    "API_VERSION",
    "AdminConfigRequest",
    "AdminConfigResponse",
    "Alert",
    "AlertLog",
    "BaselineDecision",
    "BatchEnvelope",
    "ColumnBaseline",
    "ErrorResponse",
    "IndexStore",
    "InferRequest",
    "InferResponse",
    "InferenceResult",
    "Observation",
    "RuleSerializationError",
    "SOLVER_CLASSES",
    "TimeSeriesStore",
    "ValidateRequest",
    "ValidateResponse",
    "Validator",
    "WIRE_VERSION",
    "WatchAlertsResponse",
    "WatchHTTPServer",
    "WatchRefreshRequest",
    "WatchRefreshResponse",
    "WatchRegistry",
    "WatchRegisterRequest",
    "WatchRegisterResponse",
    "WatchService",
    "WatchStatusResponse",
    "WireError",
    "available_formats",
    "available_validators",
    "get_store",
    "get_validator",
    "merge_many",
    "open_index",
    "register_store",
    "register_validator",
    "render_report",
    "resolve_name",
    "rule_from_payload",
    "rule_to_payload",
    "save_index",
    "validator_summary",
]
