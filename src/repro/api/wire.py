"""Versioned wire envelopes — how rules, results and reports travel.

Everything the HTTP layer (and any future gRPC layer) puts on the wire is
one of the envelope dataclasses below.  The format contract (documented in
``src/repro/api/WIRE.md``):

* every envelope serializes to a JSON object tagged with ``"v"`` (the wire
  version, currently :data:`WIRE_VERSION`) and ``"type"`` (the envelope
  name in snake_case);
* ``to_json`` is deterministic — sorted keys, compact separators, raw
  unicode — so equal envelopes serialize to identical bytes (the property
  round-trip tests rely on this);
* ``from_json`` validates both tags and raises :class:`WireError` on
  mismatch, so version skew fails loudly at the edge instead of deep in a
  solver.

Rule payloads are ``"kind"``-tagged dicts handled by
:func:`repro.validate.result.rule_to_payload` — pattern, dictionary and
numeric rules round-trip losslessly; baseline rules are process-local
artifacts and are rejected with :class:`RuleSerializationError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Mapping, TypeVar

from repro.validate.result import (
    InferenceResult,
    RuleSerializationError,
    rule_from_payload,
    rule_to_payload,
)
from repro.validate.rule import ValidationReport, dumps_canonical

#: Version tag carried by every envelope; bump on breaking schema changes.
WIRE_VERSION = 1


class WireError(ValueError):
    """Malformed, mistyped or wrong-version wire payload."""


_E = TypeVar("_E", bound="_Envelope")


def _load_envelope(text: str | bytes, expected_type: str) -> dict[str, Any]:
    """Parse and validate the common ``v``/``type`` tags of an envelope."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(f"envelope must be a JSON object, got {type(payload).__name__}")
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r} (expected {WIRE_VERSION})")
    found_type = payload.get("type")
    if found_type != expected_type:
        raise WireError(f"expected envelope type {expected_type!r}, got {found_type!r}")
    return payload


class _Envelope:
    """Shared serialization plumbing; subclasses define ``wire_type`` plus
    ``_body``/``_from_body``."""

    wire_type: ClassVar[str]

    def _body(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def _from_body(cls: type[_E], payload: Mapping[str, Any]) -> _E:
        raise NotImplementedError

    def to_payload(self) -> dict[str, Any]:
        return {"v": WIRE_VERSION, "type": self.wire_type, **self._body()}

    def to_json(self) -> str:
        return dumps_canonical(self.to_payload())

    @classmethod
    def from_payload(cls: type[_E], payload: Mapping[str, Any]) -> _E:
        return cls._from_body(payload)

    @classmethod
    def from_json(cls: type[_E], text: str | bytes) -> _E:
        return cls._from_body(_load_envelope(text, cls.wire_type))


def _values_tuple(payload: Mapping[str, Any]) -> tuple[str, ...]:
    values = payload.get("values")
    if not isinstance(values, list) or any(not isinstance(v, str) for v in values):
        raise WireError('"values" must be a JSON array of strings')
    return tuple(values)


@dataclass(frozen=True)
class InferRequest(_Envelope):
    """Ask for a rule to be inferred from one training column."""

    wire_type: ClassVar[str] = "infer_request"

    values: tuple[str, ...]
    variant: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def _body(self) -> dict[str, Any]:
        return {"values": list(self.values), "variant": self.variant}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "InferRequest":
        variant = payload.get("variant")
        if variant is not None and not isinstance(variant, str):
            raise WireError('"variant" must be a string or null')
        return cls(values=_values_tuple(payload), variant=variant)


@dataclass(frozen=True)
class InferResponse(_Envelope):
    """The inferred rule (or abstention) plus the serving generation."""

    wire_type: ClassVar[str] = "infer_response"

    result: InferenceResult
    generation: str = ""

    def _body(self) -> dict[str, Any]:
        return {"result": self.result.to_payload(), "generation": self.generation}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "InferResponse":
        raw = payload.get("result")
        if not isinstance(raw, Mapping):
            raise WireError('"result" must be a JSON object')
        return cls(
            result=InferenceResult.from_payload(raw),
            generation=str(payload.get("generation", "")),
        )


@dataclass(frozen=True)
class ValidateRequest(_Envelope):
    """Ask whether a future column conforms to a previously inferred rule."""

    wire_type: ClassVar[str] = "validate_request"

    rule: Any
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def _body(self) -> dict[str, Any]:
        return {"rule": rule_to_payload(self.rule), "values": list(self.values)}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "ValidateRequest":
        raw = payload.get("rule")
        if not isinstance(raw, Mapping):
            raise WireError('"rule" must be a JSON object')
        try:
            rule = rule_from_payload(raw)
        except RuleSerializationError as exc:
            raise WireError(str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed rule payload: {exc}") from exc
        return cls(rule=rule, values=_values_tuple(payload))


@dataclass(frozen=True)
class ValidateResponse(_Envelope):
    """The validation report for one (rule, column) pair."""

    wire_type: ClassVar[str] = "validate_response"

    report: ValidationReport

    def _body(self) -> dict[str, Any]:
        return {"report": self.report.to_dict()}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "ValidateResponse":
        raw = payload.get("report")
        if not isinstance(raw, Mapping):
            raise WireError('"report" must be a JSON object')
        try:
            report = ValidationReport.from_dict(dict(raw))
        except TypeError as exc:
            raise WireError(f"malformed report payload: {exc}") from exc
        return cls(report=report)


def _optional_number(payload: Mapping[str, Any], field_name: str) -> float | None:
    value = payload.get(field_name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f'"{field_name}" must be a number or null')
    return float(value)


@dataclass(frozen=True)
class AdminConfigRequest(_Envelope):
    """Hot-reload part of the serving config (loopback-only admin route).

    Every field is optional: omitted/null fields keep their current
    value, so ``{"rate": 100}`` bumps the rate limit without touching the
    default variant — and never drops the index caches.
    """

    wire_type: ClassVar[str] = "admin_config_request"

    rate: float | None = None
    burst: float | None = None
    variant: str | None = None

    def _body(self) -> dict[str, Any]:
        return {"rate": self.rate, "burst": self.burst, "variant": self.variant}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "AdminConfigRequest":
        variant = payload.get("variant")
        if variant is not None and not isinstance(variant, str):
            raise WireError('"variant" must be a string or null')
        return cls(
            rate=_optional_number(payload, "rate"),
            burst=_optional_number(payload, "burst"),
            variant=variant,
        )


@dataclass(frozen=True)
class AdminConfigResponse(_Envelope):
    """The full active serving config after (or without) an update."""

    wire_type: ClassVar[str] = "admin_config_response"

    rate: float
    burst: float
    variant: str
    generation: str = ""
    index_format: str = ""

    def _body(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "variant": self.variant,
            "generation": self.generation,
            "index_format": self.index_format,
        }

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "AdminConfigResponse":
        return cls(
            rate=float(payload.get("rate", 0.0)),
            burst=float(payload.get("burst", 0.0)),
            variant=str(payload.get("variant", "")),
            generation=str(payload.get("generation", "")),
            index_format=str(payload.get("index_format", "")),
        )


def _required_int(payload: Mapping[str, Any], field_name: str) -> int:
    value = payload.get(field_name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f'"{field_name}" must be an integer')
    return value


#: The scalar EnumerationConfig knobs a scan request carries, with the
#: JSON type each must decode to.  The hierarchy knobs ride alongside
#: under "hierarchy" — together they pin *every* input that shapes the
#: pattern space, so a worker can prove it will enumerate exactly what
#: the coordinator expects (fingerprint equality) before scanning.
_SCAN_CONFIG_FIELDS: tuple[tuple[str, type], ...] = (
    ("tau", int),
    ("min_coverage", float),
    ("min_option_coverage", float),
    ("max_patterns", int),
    ("max_const_options", int),
    ("max_length_options", int),
    ("enumerate_alnum_runs", bool),
)
_SCAN_HIERARCHY_FIELDS: tuple[tuple[str, type], ...] = (
    ("use_case_classes", bool),
    ("use_num", bool),
    ("use_alnum_fixed", bool),
    ("use_alnum_plus", bool),
    ("max_const_length", int),
)


@dataclass(frozen=True)
class ScanRequest(_Envelope):
    """One column window for a scan worker to enumerate and spill.

    The distributed build's unit of work: the coordinator ships the
    window's raw column values plus the *complete* enumeration config
    (scalar knobs and hierarchy knobs) and the config fingerprint it
    computed locally.  The worker reconstructs the config, recomputes the
    fingerprint, and refuses the window with ``409 config_mismatch`` if
    they disagree — version skew between coordinator and worker binaries
    must fail before any run file exists, not as a subtly different index.

    ``window_id`` is the coordinator's stable identifier for the window;
    it survives retries and reassignment, so worker-side logs and the
    final :class:`ScanResponse` can always be traced back to one window.
    """

    wire_type: ClassVar[str] = "scan_request"

    window_id: int
    columns: tuple[tuple[str, ...], ...]
    config: Mapping[str, Any]
    fingerprint: str
    spill_mb: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "columns", tuple(tuple(column) for column in self.columns)
        )
        object.__setattr__(self, "config", dict(self.config))

    def _body(self) -> dict[str, Any]:
        return {
            "window_id": self.window_id,
            "columns": [list(column) for column in self.columns],
            "config": dict(self.config),
            "fingerprint": self.fingerprint,
            "spill_mb": self.spill_mb,
        }

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "ScanRequest":
        raw_columns = payload.get("columns")
        if not isinstance(raw_columns, list):
            raise WireError('"columns" must be a JSON array')
        columns = []
        for i, raw in enumerate(raw_columns):
            if not isinstance(raw, list) or any(
                not isinstance(v, str) for v in raw
            ):
                raise WireError(f"column {i} must be a JSON array of strings")
            columns.append(tuple(raw))
        raw_config = payload.get("config")
        if not isinstance(raw_config, Mapping):
            raise WireError('"config" must be a JSON object')
        config = _validated_scan_config(raw_config)
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise WireError('"fingerprint" must be a non-empty string')
        return cls(
            window_id=_required_int(payload, "window_id"),
            columns=tuple(columns),
            config=config,
            fingerprint=fingerprint,
            spill_mb=_optional_number(payload, "spill_mb"),
        )


def _validated_scan_config(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Validate the knob types of a scan request's ``config`` object."""
    config: dict[str, Any] = {}
    for name, kind in _SCAN_CONFIG_FIELDS:
        value = raw.get(name)
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)  # JSON has one number type
        if not isinstance(value, kind) or (
            kind is not bool and isinstance(value, bool)
        ):
            raise WireError(
                f'config knob "{name}" must be a {kind.__name__}'
            )
        config[name] = value
    raw_hierarchy = raw.get("hierarchy")
    if not isinstance(raw_hierarchy, Mapping):
        raise WireError('"config.hierarchy" must be a JSON object')
    hierarchy: dict[str, Any] = {}
    for name, kind in _SCAN_HIERARCHY_FIELDS:
        value = raw_hierarchy.get(name)
        if not isinstance(value, kind) or (
            kind is not bool and isinstance(value, bool)
        ):
            raise WireError(
                f'hierarchy knob "{name}" must be a {kind.__name__}'
            )
        hierarchy[name] = value
    config["hierarchy"] = hierarchy
    return config


@dataclass(frozen=True)
class ScanResponse(_Envelope):
    """A worker's receipt for one scanned window.

    ``run_id`` names the consolidated run file now downloadable at
    ``GET /v1/runs/<run_id>``; ``run_bytes`` and ``crc32`` (CRC-32 of the
    whole run payload, footer included) let the coordinator verify the
    download byte for byte before merging.  The scan counters feed
    ``DistBuildStats`` per-worker throughput.
    """

    wire_type: ClassVar[str] = "scan_response"

    window_id: int
    run_id: str
    n_entries: int
    run_bytes: int
    crc32: int
    columns_scanned: int
    values_scanned: int
    sketch_hits: int = 0
    sketch_misses: int = 0

    def _body(self) -> dict[str, Any]:
        return {
            "window_id": self.window_id,
            "run_id": self.run_id,
            "n_entries": self.n_entries,
            "run_bytes": self.run_bytes,
            "crc32": self.crc32,
            "columns_scanned": self.columns_scanned,
            "values_scanned": self.values_scanned,
            "sketch_hits": self.sketch_hits,
            "sketch_misses": self.sketch_misses,
        }

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "ScanResponse":
        run_id = payload.get("run_id")
        if not isinstance(run_id, str) or not run_id:
            raise WireError('"run_id" must be a non-empty string')
        return cls(
            window_id=_required_int(payload, "window_id"),
            run_id=run_id,
            n_entries=_required_int(payload, "n_entries"),
            run_bytes=_required_int(payload, "run_bytes"),
            crc32=_required_int(payload, "crc32"),
            columns_scanned=_required_int(payload, "columns_scanned"),
            values_scanned=_required_int(payload, "values_scanned"),
            sketch_hits=_required_int(payload, "sketch_hits"),
            sketch_misses=_required_int(payload, "sketch_misses"),
        )


def _required_string(payload: Mapping[str, Any], field_name: str) -> str:
    value = payload.get(field_name)
    if not isinstance(value, str) or not value:
        raise WireError(f'"{field_name}" must be a non-empty string')
    return value


def _columns_mapping(payload: Mapping[str, Any]) -> dict[str, tuple[str, ...]]:
    """Validate a ``{"column": ["value", ...]}`` feed snapshot."""
    raw = payload.get("columns")
    if not isinstance(raw, Mapping):
        raise WireError('"columns" must be a JSON object of string arrays')
    columns: dict[str, tuple[str, ...]] = {}
    for name in sorted(raw):
        if not isinstance(name, str) or not name:
            raise WireError("column names must be non-empty strings")
        values = raw[name]
        if not isinstance(values, list) or any(
            not isinstance(v, str) for v in values
        ):
            raise WireError(f'column "{name}" must be a JSON array of strings')
        columns[name] = tuple(values)
    return columns


def _object_tuple(payload: Mapping[str, Any], field_name: str) -> tuple[dict[str, Any], ...]:
    """A JSON array of objects (alert payloads, per-column results, ...)."""
    raw = payload.get(field_name)
    if not isinstance(raw, list):
        raise WireError(f'"{field_name}" must be a JSON array')
    items = []
    for i, item in enumerate(raw):
        if not isinstance(item, Mapping):
            raise WireError(f'"{field_name}" item {i} must be a JSON object')
        items.append(dict(item))
    return tuple(items)


class _WatchFeedEnvelope(_Envelope):
    """Shared shape of the watch requests: a (tenant, feed) snapshot."""

    tenant: str
    feed: str
    columns: Mapping[str, tuple[str, ...]]

    def _body(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "feed": self.feed,
            "columns": {
                name: list(values) for name, values in sorted(self.columns.items())
            },
        }


@dataclass(frozen=True)
class WatchRegisterRequest(_WatchFeedEnvelope):
    """Register (or re-learn) a watched feed from a training snapshot.

    ``interval_seconds`` declares the expected refresh cadence; the watch
    scheduler raises a ``missed_refresh`` alert when the feed goes silent
    past it.  ``null`` means ad hoc (no freshness checks).  Re-registering
    an existing feed re-learns the supplied columns and resets their
    baselines — the confirmed-upstream-change path
    (``WatchService.relearn`` semantics).
    """

    wire_type: ClassVar[str] = "watch_register_request"

    tenant: str
    feed: str
    columns: Mapping[str, tuple[str, ...]]
    interval_seconds: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "columns",
            {name: tuple(values) for name, values in dict(self.columns).items()},
        )

    def _body(self) -> dict[str, Any]:
        body = super()._body()
        body["interval_seconds"] = self.interval_seconds
        return body

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "WatchRegisterRequest":
        return cls(
            tenant=_required_string(payload, "tenant"),
            feed=_required_string(payload, "feed"),
            columns=_columns_mapping(payload),
            interval_seconds=_optional_number(payload, "interval_seconds"),
        )


@dataclass(frozen=True)
class WatchRegisterResponse(_Envelope):
    """Per-column learn outcomes: the rule kind, or the abstention reason."""

    wire_type: ClassVar[str] = "watch_register_response"

    tenant: str
    feed: str
    outcomes: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", dict(self.outcomes))

    def _body(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "feed": self.feed,
            "outcomes": dict(sorted(self.outcomes.items())),
        }

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "WatchRegisterResponse":
        raw = payload.get("outcomes")
        if not isinstance(raw, Mapping) or any(
            not isinstance(k, str) or not isinstance(v, str) for k, v in raw.items()
        ):
            raise WireError('"outcomes" must be a JSON object of strings')
        return cls(
            tenant=_required_string(payload, "tenant"),
            feed=_required_string(payload, "feed"),
            outcomes=dict(raw),
        )


@dataclass(frozen=True)
class WatchRefreshRequest(_WatchFeedEnvelope):
    """Validate one refresh of a registered feed."""

    wire_type: ClassVar[str] = "watch_refresh_request"

    tenant: str
    feed: str
    columns: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "columns",
            {name: tuple(values) for name, values in dict(self.columns).items()},
        )

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "WatchRefreshRequest":
        return cls(
            tenant=_required_string(payload, "tenant"),
            feed=_required_string(payload, "feed"),
            columns=_columns_mapping(payload),
        )


@dataclass(frozen=True)
class WatchRefreshResponse(_Envelope):
    """The outcome of one refresh: per-column results + emitted alerts.

    ``results`` items and ``alerts`` items are plain JSON objects (the
    per-column result payloads of ``WatchService.refresh`` and
    ``Alert.to_payload`` respectively) — they stay dicts on the wire so
    the envelope does not pin the monitoring layer's evolving detail
    fields into the wire schema.
    """

    wire_type: ClassVar[str] = "watch_refresh_response"

    tenant: str
    feed: str
    refresh_id: int
    ts: float
    results: tuple[dict[str, Any], ...]
    columns_skipped: tuple[str, ...]
    severity_counts: Mapping[str, int]
    alerts: tuple[dict[str, Any], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(dict(r) for r in self.results))
        object.__setattr__(self, "columns_skipped", tuple(self.columns_skipped))
        object.__setattr__(self, "severity_counts", dict(self.severity_counts))
        object.__setattr__(self, "alerts", tuple(dict(a) for a in self.alerts))

    def _body(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "feed": self.feed,
            "refresh_id": self.refresh_id,
            "ts": self.ts,
            "results": [dict(r) for r in self.results],
            "columns_skipped": list(self.columns_skipped),
            "severity_counts": dict(sorted(self.severity_counts.items())),
            "alerts": [dict(a) for a in self.alerts],
        }

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "WatchRefreshResponse":
        raw_skipped = payload.get("columns_skipped", [])
        if not isinstance(raw_skipped, list) or any(
            not isinstance(v, str) for v in raw_skipped
        ):
            raise WireError('"columns_skipped" must be a JSON array of strings')
        raw_counts = payload.get("severity_counts", {})
        if not isinstance(raw_counts, Mapping) or any(
            not isinstance(k, str)
            or isinstance(v, bool)
            or not isinstance(v, int)
            for k, v in raw_counts.items()
        ):
            raise WireError('"severity_counts" must be a JSON object of integers')
        raw_ts = payload.get("ts")
        if isinstance(raw_ts, bool) or not isinstance(raw_ts, (int, float)):
            raise WireError('"ts" must be a number')
        return cls(
            tenant=_required_string(payload, "tenant"),
            feed=_required_string(payload, "feed"),
            refresh_id=_required_int(payload, "refresh_id"),
            ts=float(raw_ts),
            results=_object_tuple(payload, "results"),
            columns_skipped=tuple(raw_skipped),
            severity_counts=dict(raw_counts),
            alerts=_object_tuple(payload, "alerts"),
        )


@dataclass(frozen=True)
class WatchStatusResponse(_Envelope):
    """The service's full observable state (baselines, cadence, stores)."""

    wire_type: ClassVar[str] = "watch_status_response"

    status: Mapping[str, Any]

    def __post_init__(self) -> None:
        object.__setattr__(self, "status", dict(self.status))

    def _body(self) -> dict[str, Any]:
        return {"status": dict(self.status)}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "WatchStatusResponse":
        raw = payload.get("status")
        if not isinstance(raw, Mapping):
            raise WireError('"status" must be a JSON object')
        return cls(status=dict(raw))


@dataclass(frozen=True)
class WatchAlertsResponse(_Envelope):
    """The newest retained alerts (``Alert.to_payload`` objects)."""

    wire_type: ClassVar[str] = "watch_alerts_response"

    alerts: tuple[dict[str, Any], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alerts", tuple(dict(a) for a in self.alerts))

    def _body(self) -> dict[str, Any]:
        return {"alerts": [dict(a) for a in self.alerts]}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "WatchAlertsResponse":
        return cls(alerts=_object_tuple(payload, "alerts"))


#: Envelope types allowed inside a batch, by their wire tag.
_BATCHABLE: dict[str, type] = {}


@dataclass(frozen=True)
class BatchEnvelope(_Envelope):
    """A homogeneous batch of envelopes (requests out, responses back).

    Items keep their order; ``/v1/infer_batch`` answers a batch of
    ``InferRequest`` with a batch of ``InferResponse`` aligned index by
    index.
    """

    wire_type: ClassVar[str] = "batch"

    items: tuple[Any, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def _body(self) -> dict[str, Any]:
        return {"items": [item.to_payload() for item in self.items]}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "BatchEnvelope":
        raw_items = payload.get("items")
        if not isinstance(raw_items, list):
            raise WireError('"items" must be a JSON array')
        items = []
        for i, raw in enumerate(raw_items):
            if not isinstance(raw, Mapping):
                raise WireError(f"batch item {i} must be a JSON object")
            item_cls = _BATCHABLE.get(raw.get("type", ""))
            if item_cls is None:
                raise WireError(f"batch item {i} has unknown type {raw.get('type')!r}")
            if raw.get("v") != WIRE_VERSION:
                raise WireError(f"batch item {i} has unsupported wire version")
            items.append(item_cls._from_body(raw))
        return cls(items=tuple(items))


@dataclass(frozen=True)
class ErrorResponse(_Envelope):
    """A machine-readable error; ``code`` values are listed in WIRE.md."""

    wire_type: ClassVar[str] = "error"

    code: str
    message: str
    status: int = 400

    def _body(self) -> dict[str, Any]:
        return {"code": self.code, "message": self.message, "status": self.status}

    @classmethod
    def _from_body(cls, payload: Mapping[str, Any]) -> "ErrorResponse":
        return cls(
            code=str(payload.get("code", "unknown")),
            message=str(payload.get("message", "")),
            status=int(payload.get("status", 400)),
        )


_BATCHABLE.update(
    {
        InferRequest.wire_type: InferRequest,
        InferResponse.wire_type: InferResponse,
        ValidateRequest.wire_type: ValidateRequest,
        ValidateResponse.wire_type: ValidateResponse,
        ErrorResponse.wire_type: ErrorResponse,
    }
)
