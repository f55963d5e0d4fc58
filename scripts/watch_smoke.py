#!/usr/bin/env python
"""End-to-end smoke test of `auto-validate watch` (used by the CI job).

Builds a tiny synthetic lake + index, boots the watch server as a real
subprocess, and drives the full monitoring loop a deployment depends on:

1. `/healthz` answers ok,
2. `POST /v1/watch/register` learns at least one rule from a training
   snapshot,
3. a clean refresh passes (no alerts),
4. a corrupted refresh fires a `rule_violation` alert (critical),
5. `/v1/watch/alerts` retains the alert, `/v1/watch/status` shows the
   feed, and the Markdown report renders with the alert in it,
6. the server is SIGKILL'd after the last acknowledged refresh, and the
   CLI renders the report offline from what the kill left on disk: the
   feed's final refresh id and the fired alert must be in it, so a fresh
   process replays the time-series WAL over the registry checkpoint
   (written to `watch-report.md`, uploaded as a CI artifact).

Exit code 0 on success; any failure raises (non-zero exit).

Usage: python scripts/watch_smoke.py [workdir]
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path


def http(url: str, body: str | None = None) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url,
        data=body.encode("utf-8") if body is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def http_json(url: str, body: str | None = None) -> tuple[int, dict]:
    status, payload = http(url, body)
    return status, json.loads(payload)


def main(workdir: str | None = None) -> int:
    from repro.cli import main as cli

    root = Path(workdir or tempfile.mkdtemp(prefix="watch-smoke-"))
    root.mkdir(parents=True, exist_ok=True)
    lake = root / "lake"
    index = root / "lake.idx"
    state_dir = root / "watch"

    assert cli(["generate", "--profile", "enterprise", "--tables", "12",
                "--seed", "7", "--out", str(lake)]) == 0
    assert cli(["index", "--corpus", str(lake), "--out", str(index),
                "--shards", "4"]) == 0

    # A training snapshot straight out of the lake: every column of one CSV.
    table = sorted(lake.glob("*.csv"))[0]
    rows = [line.split(",") for line in
            table.read_text(encoding="utf-8").splitlines() if line]
    header, data = rows[0], rows[1:]
    columns = {
        header[i]: [row[i] for row in data if len(row) > i]
        for i in range(len(header))
    }

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "watch",
         "--state-dir", str(state_dir), "--index", str(index),
         "--serve", "--port", "0", "--tick-seconds", "1",
         "--min-coverage", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
             "PATH": "/usr/bin:/bin:" + sys.exec_prefix + "/bin",
             "PYTHONUNBUFFERED": "1"},
    )
    try:
        ready = process.stdout.readline()
        assert "watching on http://" in ready, (
            f"watch server failed to boot: {ready!r}\n{process.stderr.read()}"
        )
        base_url = ready.split()[2]
        print(f"watch server ready at {base_url}")

        # 1. readiness
        status, health = http_json(base_url + "/healthz")
        assert status == 200 and health["status"] == "ok", (status, health)
        assert health["learner"] is True, health
        print("healthz ok")

        # 2. register: learn rules from the training snapshot
        body = json.dumps({"v": 1, "type": "watch_register_request",
                           "tenant": "acme", "feed": "orders",
                           "columns": columns, "interval_seconds": 3600.0})
        status, payload = http_json(base_url + "/v1/watch/register", body)
        assert status == 200, (status, payload)
        learned = [c for c, outcome in payload["outcomes"].items()
                   if not outcome.startswith("unmonitored")]
        assert learned, f"no column learned a rule: {payload['outcomes']}"
        print(f"register ok: {len(learned)} column(s) monitored")

        # 3. a clean refresh: same distribution, no alerts
        body = json.dumps({"v": 1, "type": "watch_refresh_request",
                           "tenant": "acme", "feed": "orders",
                           "columns": columns})
        status, payload = http_json(base_url + "/v1/watch/refresh", body)
        assert status == 200, (status, payload)
        assert payload["severity_counts"]["critical"] == 0, payload
        assert payload["alerts"] == [], payload
        print("clean refresh ok (no alerts)")

        # 4. a corrupted refresh: every monitored value replaced by junk
        corrupted = {
            column: ["###corrupt###"] * len(values)
            for column, values in columns.items()
        }
        body = json.dumps({"v": 1, "type": "watch_refresh_request",
                           "tenant": "acme", "feed": "orders",
                           "columns": corrupted})
        status, payload = http_json(base_url + "/v1/watch/refresh", body)
        assert status == 200, (status, payload)
        assert payload["severity_counts"]["critical"] >= 1, payload
        kinds = {alert["kind"] for alert in payload["alerts"]}
        assert "rule_violation" in kinds, payload["alerts"]
        print(f"corrupted refresh ok ({len(payload['alerts'])} alert(s) fired)")

        # 5. alerts retained; status shows the feed; Markdown report renders
        status, payload = http_json(base_url + "/v1/watch/alerts")
        assert status == 200 and payload["alerts"], payload
        status, payload = http_json(base_url + "/v1/watch/status")
        feeds = payload["status"]["feeds"]
        assert status == 200 and len(feeds) == 1, payload
        assert feeds[0]["refresh_id"] == 2, feeds
        status, report = http(base_url + "/v1/watch/report.md")
        text = report.decode("utf-8")
        assert status == 200 and "# Data-quality watch report" in text, text[:200]
        assert "rule_violation" in text, text
        assert "acme/orders" in text, text
        print("alerts + status + markdown report ok")

        # an unregistered feed answers 404 not_found
        body = json.dumps({"v": 1, "type": "watch_refresh_request",
                           "tenant": "acme", "feed": "nope",
                           "columns": {}})
        status, payload = http_json(base_url + "/v1/watch/refresh", body)
        assert status == 404 and payload["code"] == "not_found", (status, payload)
        print("unregistered feed 404 ok")

        # 6. kill -9: no shutdown path runs, so only what each
        #    acknowledged call made durable survives.
        process.send_signal(signal.SIGKILL)
        assert process.wait(timeout=15) == -signal.SIGKILL
        print("server SIGKILL'd after the last acknowledged refresh")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=15)
        process.stdout.close()
        process.stderr.close()

    # offline report from the state the kill left (no server running):
    # the CI job uploads this file as the run artifact.
    report_path = root / "watch-report.md"
    assert cli(["watch", "--state-dir", str(state_dir),
                "--report", "md", "--out", str(report_path)]) == 0
    text = report_path.read_text(encoding="utf-8")
    assert "rule_violation" in text and "acme/orders" in text, text[:200]
    assert "refreshes: 2 " in text, text
    print(f"offline report ok after kill -9: {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
