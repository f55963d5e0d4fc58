#!/usr/bin/env python
"""End-to-end smoke test of `auto-validate serve` (used by the CI job).

Builds a tiny synthetic lake + index, boots the server as a real
subprocess, and asserts the four things a deployment depends on:

1. `/healthz` answers ok,
2. `/v1/infer` returns a rule that `ValidationRule.from_json` reconstructs
   to an equal rule,
3. the per-tenant rate limiter answers 429 once the burst is spent,
4. a fleet of two servers on the same index behind `RoundRobinClient`
   answers an `infer_batch` holding a repeated column exactly as one
   server's `/v1/infer_batch` does, item for item.

Exit code 0 on success; any failure raises (non-zero exit).

Usage: python scripts/serve_smoke.py [workdir]
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path


def http(url: str, body: str | None = None) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=body.encode("utf-8") if body is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def boot(index: Path, *flags: str) -> tuple[subprocess.Popen, str]:
    """`auto-validate serve` on a free port: (process, base URL)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--index", str(index), "--port", "0", "--min-coverage", "3", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
             "PATH": "/usr/bin:/bin:" + sys.exec_prefix + "/bin",
             "PYTHONUNBUFFERED": "1"},
    )
    ready = process.stdout.readline()
    if "serving on http://" not in ready:
        stop(process)
        raise AssertionError(
            f"server failed to boot: {ready!r}\n{process.stderr.read()}"
        )
    return process, ready.split()[2]


def stop(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=15)


def main(workdir: str | None = None) -> int:
    from repro.api.wire import BatchEnvelope, InferRequest
    from repro.cli import main as cli
    from repro.dist import RoundRobinClient
    from repro.validate.rule import ValidationRule

    root = Path(workdir or tempfile.mkdtemp(prefix="serve-smoke-"))
    lake = root / "lake"
    index = root / "lake.idx"
    column = root / "feed.txt"

    assert cli(["generate", "--profile", "enterprise", "--tables", "12",
                "--seed", "7", "--out", str(lake)]) == 0
    assert cli(["index", "--corpus", str(lake), "--out", str(index),
                "--shards", "4"]) == 0
    # Training columns straight out of the lake: the first column of the
    # first few CSVs.
    columns = []
    for table in sorted(lake.glob("*.csv"))[:4]:
        rows = table.read_text(encoding="utf-8").splitlines()
        columns.append([line.split(",")[0] for line in rows[1:41] if line])
    values = columns[0]
    column.write_text("\n".join(values), encoding="utf-8")

    processes = []
    try:
        process, base_url = boot(index, "--rate", "0.001", "--burst", "3")
        processes.append(process)
        print(f"server ready at {base_url}")

        # 1. liveness
        status, health = http(base_url + "/healthz")
        assert status == 200 and health["status"] == "ok", (status, health)
        print("healthz ok")

        # 2. one infer round-trip; the rule must reconstruct losslessly
        body = json.dumps({"v": 1, "type": "infer_request",
                           "values": values, "variant": None})
        status, payload = http(base_url + "/v1/infer", body)
        assert status == 200, (status, payload)
        rule_payload = payload["result"]["rule"]
        assert rule_payload is not None, payload
        rule = ValidationRule.from_json(json.dumps(rule_payload))
        assert rule.to_dict() == {
            k: v for k, v in rule_payload.items() if k != "kind"
        }
        print(f"infer ok: {rule.pattern.display()}")

        # 3. burst of 3 is spent (one token went to the infer above);
        #    hammer until the limiter answers 429
        saw_429 = False
        for _ in range(6):
            status, payload = http(base_url + "/v1/infer", body)
            if status == 429:
                assert payload["code"] == "rate_limited", payload
                saw_429 = True
                break
        assert saw_429, "rate limiter never answered 429"
        print("rate limiter ok (429 observed)")

        status, metrics = http(base_url + "/metrics")
        assert status == 200 and metrics["rate_limited_total"] >= 1, metrics
        print("metrics ok:", json.dumps(metrics, indent=None))

        # 4. a two-server fleet answers a batch as one server does.  Lift
        #    the first server's limit (loopback /admin/config), boot a
        #    second on the same index, and send a batch that repeats a
        #    column both through the client and to one server directly.
        status, payload = http(
            base_url + "/admin/config",
            json.dumps({"v": 1, "type": "admin_config_request", "rate": 0.0}),
        )
        assert status == 200 and payload["rate"] == 0.0, (status, payload)
        process, second_url = boot(index)
        processes.append(process)
        batch = [columns[0], columns[1], columns[2], columns[0], columns[3]]
        fleet = RoundRobinClient([base_url, second_url]).infer_batch(batch)
        envelope = BatchEnvelope(
            items=tuple(InferRequest(values=tuple(v)) for v in batch)
        ).to_json()
        status, payload = http(second_url + "/v1/infer_batch", envelope)
        assert status == 200, (status, payload)
        single = BatchEnvelope.from_json(json.dumps(payload)).items
        assert [r.to_payload() for r in fleet] == [
            item.result.to_payload() for item in single
        ], "fleet infer_batch differs from one server's /v1/infer_batch"
        assert fleet[0] is fleet[3], "a repeated column must share one result"
        print(f"fleet ok: {len(batch)} columns over 2 servers match one server")
        return 0
    finally:
        for process in processes:
            stop(process)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
