"""Continuous data-quality monitoring on top of the inference engine.

The paper's pitch (§1) is validation wired into *production* pipelines:
learn a data-domain pattern once from the data lake, then check every
future refresh against it.  This package is that loop as a long-running
product:

* :mod:`repro.watch.registry` — the checkpointed registry of watched
  feeds (learned rules + baseline state, atomic canonical JSON);
* :mod:`repro.watch.timeseries` — the append-only refresh history
  (CRC-framed NDJSON segments + compact binary per-day summaries,
  crash-safe); its live WAL is each refresh's commit point;
* :mod:`repro.watch.baseline` — learned per-column pass-rate baselines
  (EWMA level + robust MAD band, hysteresis, re-arm on relearn);
* :mod:`repro.watch.alerts` — typed alert records and their bounded,
  persisted log;
* :mod:`repro.watch.service` — :class:`WatchService`, the loop itself:
  register / refresh / tick / report, with injectable clocks;
* :mod:`repro.watch.report` — the JSON / Markdown / HTML renderers;
* :mod:`repro.watch.server` — :class:`WatchHTTPServer`, the HTTP edge
  (``auto-validate watch --serve``).

Design notes (segment format, baseline math): ``src/repro/watch/DESIGN.md``.
"""

from repro.watch.alerts import (
    ALERT_KINDS,
    DEFAULT_MAX_ALERTS,
    SEVERITIES,
    Alert,
    AlertLog,
)
from repro.watch.baseline import (
    BAND_FLOOR,
    BAND_Z,
    BaselineDecision,
    ColumnBaseline,
)
from repro.watch.registry import (
    REGISTRY_VERSION,
    ColumnState,
    FeedState,
    WatchRegistry,
)
from repro.watch.report import REPORT_FORMATS, render_report
from repro.watch.server import WatchHTTPServer
from repro.watch.service import OVERDUE_GRACE, Learner, WatchService
from repro.watch.timeseries import (
    Observation,
    TimeSeriesStore,
    TornSummaryError,
    read_day_summary,
    write_day_summary,
)

__all__ = [
    "ALERT_KINDS",
    "BAND_FLOOR",
    "BAND_Z",
    "DEFAULT_MAX_ALERTS",
    "OVERDUE_GRACE",
    "REGISTRY_VERSION",
    "REPORT_FORMATS",
    "SEVERITIES",
    "Alert",
    "AlertLog",
    "BaselineDecision",
    "ColumnBaseline",
    "ColumnState",
    "FeedState",
    "Learner",
    "Observation",
    "TimeSeriesStore",
    "TornSummaryError",
    "WatchHTTPServer",
    "WatchRegistry",
    "WatchService",
    "read_day_summary",
    "render_report",
    "write_day_summary",
]
