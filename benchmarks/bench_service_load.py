"""Campaign service under load: concurrent clients, caching, latency.

Boots the full ``repro.service`` stack — HTTP front end, fair
scheduler, multi-tenant store — in-process on an ephemeral port and
drives it the way a busy lab would:

1. **seed** — submit a campaign and drain it to completion;
2. **resubmit** — re-POST the identical spec many times and verify the
   executed-units counter does not move (content-hash dedup);
3. **overlap** — submit sibling specs sharing half their grid with the
   seed campaign and measure the unit cache-hit rate;
4. **load** — hold N concurrent keep-alive clients open at once, each
   issuing sequential status polls, and record p50/p99 latency and
   sustained throughput.

Writes the ``BENCH_service.json`` artifact at the repo root. Modes::

    python benchmarks/bench_service_load.py            # 500 clients
    python benchmarks/bench_service_load.py --smoke    # 50 clients + gate
    python benchmarks/bench_service_load.py --check    # 500 clients + gate

A ``--smoke`` run writes ``BENCH_service.smoke.json`` (git-ignored)
instead, so it never replaces the committed full-size artifact.

The gate fails when any request errors, when the cache-hit rate is
zero, when a resubmission recomputed anything, or (non-smoke) when
fewer than ``FULL_CLIENTS`` clients were sustained concurrently.

The file matches the ``bench_*.py`` pytest pattern but defines no test
functions; it tracks control-plane behaviour, not paper figures.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import (  # noqa: E402
    CampaignService,
    SchedulerConfig,
    ServiceConfig,
    serve,
)

ARTIFACT = REPO_ROOT / "BENCH_service.json"
SMOKE_ARTIFACT = REPO_ROOT / "BENCH_service.smoke.json"

#: Concurrent keep-alive clients in the full run (ISSUE floor: 500).
FULL_CLIENTS = 500

#: Concurrent clients in --smoke (CI) mode.
SMOKE_CLIENTS = 50

#: Status polls each client issues over its one connection.
POLLS_PER_CLIENT = 10

#: Identical resubmissions of the completed seed campaign.
RESUBMITS = 20


def spec_doc(name: str, policies: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "schema": 1,
        "kind": "campaign-spec",
        "name": name,
        "systems": ["miniHPC"],
        "workloads": ["SedovBlast"],
        "particles": [30_000.0, 60_000.0],
        "steps": 2,
        "seeds": [0],
        "policies": policies,
        "clocks_mhz": [1305.0, 1005.0],
    }


SEED_SPEC = spec_doc(
    "bench-service", [{"kind": "baseline"}, {"kind": "static"}]
)

#: Sibling specs: same campaign name, so their baseline/static halves
#: collide with the seed grid and must arrive as cache hits.
OVERLAP_SPECS = [
    spec_doc("bench-service", [{"kind": "baseline"}, {"kind": "dvfs"}]),
    spec_doc("bench-service", [{"kind": "static"}, {"kind": "mandyn"}]),
]


class Client:
    """One keep-alive HTTP/1.1 connection issuing sequential requests."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader
        self.writer: asyncio.StreamWriter

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def request(
        self, method: str, path: str, body: Any = None
    ) -> Dict[str, Any]:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        self.writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        raw = await self.reader.readexactly(length) if length else b""
        doc = json.loads(raw) if raw else {}
        if status >= 400:
            raise RuntimeError(f"{method} {path} -> {status}: {doc}")
        return doc


async def wait_done(client: Client, cid: str, timeout: float = 60.0) -> None:
    deadline = time.perf_counter() + timeout
    while True:
        doc = await client.request("GET", f"/campaigns/{cid}")
        if doc["state"] == "done":
            return
        if doc["state"] in ("failed", "cancelled"):
            raise RuntimeError(f"campaign {cid} ended {doc['state']}")
        if time.perf_counter() > deadline:
            raise RuntimeError(f"campaign {cid} stuck in {doc['state']}")
        await asyncio.sleep(0.02)


async def poll_worker(
    host: str,
    port: int,
    cid: str,
    polls: int,
    barrier: asyncio.Barrier,
    latencies: List[float],
    errors: List[str],
) -> None:
    client = Client(host, port)
    try:
        await client.connect()
        # Hold until EVERY client is connected: the measured window has
        # all N connections open simultaneously, not a ramp.
        await barrier.wait()
        for _ in range(polls):
            t0 = time.perf_counter()
            await client.request("GET", f"/campaigns/{cid}")
            latencies.append(time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 - recorded, fails the gate
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        await client.close()


async def run_bench(clients: int) -> Dict[str, Any]:
    with tempfile.TemporaryDirectory() as root:
        service = CampaignService(
            ServiceConfig(
                root=root,
                scheduler=SchedulerConfig(
                    max_running=2, per_tenant_running=2, queue_depth=64
                ),
            )
        )
        server = await serve(service, port=0)
        try:
            return await _phases(service, server, clients)
        finally:
            await server.close()
            await service.close()


async def _phases(service, server, clients: int) -> Dict[str, Any]:
    control = Client(server.host, server.port)
    await control.connect()

    # -- phase 1: seed campaign ------------------------------------------
    sub = await control.request("POST", "/campaigns", SEED_SPEC)
    cid = sub["id"]
    await wait_done(control, cid)
    executed_after_seed = service.metrics.counter_total(
        "service_units_executed"
    )

    # -- phase 2: identical resubmissions never recompute ----------------
    for _ in range(RESUBMITS):
        again = await control.request("POST", "/campaigns", SEED_SPEC)
        assert again["id"] == cid
    await control.request("GET", f"/campaigns/{cid}/report")
    resubmit_recomputed = (
        service.metrics.counter_total("service_units_executed")
        - executed_after_seed
    )

    # -- phase 3: overlapping sibling specs hit the unit cache -----------
    overlap_ids = []
    for doc in OVERLAP_SPECS:
        sub = await control.request("POST", "/campaigns", doc)
        overlap_ids.append(sub["id"])
    for oid in overlap_ids:
        await wait_done(control, oid)
    executed = service.metrics.counter_total("service_units_executed")
    cache_hits = service.metrics.counter_total("service_unit_cache_hits")
    hit_rate = cache_hits / max(1.0, cache_hits + executed)

    # -- phase 4: concurrent status-poll load ----------------------------
    latencies: List[float] = []
    errors: List[str] = []
    barrier = asyncio.Barrier(clients + 1)
    tasks = [
        asyncio.ensure_future(
            poll_worker(
                server.host, server.port, cid, POLLS_PER_CLIENT,
                barrier, latencies, errors,
            )
        )
        for _ in range(clients)
    ]
    await barrier.wait()  # all clients connected: start the clock
    t0 = time.perf_counter()
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - t0
    await control.close()

    latencies.sort()
    quantile = (
        lambda q: statistics.quantiles(latencies, n=100)[q - 1]
        if len(latencies) >= 100
        else latencies[int(q / 100 * (len(latencies) - 1))]
    )
    return {
        "load": {
            "concurrent_clients": clients,
            "polls_per_client": POLLS_PER_CLIENT,
            "requests": len(latencies),
            "errors": len(errors),
            "error_samples": errors[:5],
            "wall_s": round(wall, 4),
            "throughput_rps": round(len(latencies) / wall, 1),
            "p50_ms": round(quantile(50) * 1e3, 3),
            "p99_ms": round(quantile(99) * 1e3, 3),
        },
        "caching": {
            "units_executed": executed,
            "unit_cache_hits": cache_hits,
            "cache_hit_rate": round(hit_rate, 4),
            "resubmits": RESUBMITS,
            "resubmit_recomputed": resubmit_recomputed,
            "report_cache_hits": service.metrics.counter_total(
                "service_report_cache_hits"
            ),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI mode: {SMOKE_CLIENTS} clients, gate on the results",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"full mode with gate ({FULL_CLIENTS} clients)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="override the concurrent client count",
    )
    args = parser.parse_args()

    clients = args.clients or (SMOKE_CLIENTS if args.smoke else FULL_CLIENTS)
    results = asyncio.run(run_bench(clients))

    payload = {
        "schema": 1,
        "kind": "bench-service",
        "mode": "smoke" if args.smoke else "full",
        **results,
    }
    artifact = SMOKE_ARTIFACT if args.smoke else ARTIFACT
    artifact.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    load, caching = results["load"], results["caching"]
    print(
        f"{load['concurrent_clients']} concurrent clients, "
        f"{load['requests']} polls in {load['wall_s']:.2f}s "
        f"({load['throughput_rps']:.0f} req/s, "
        f"p50 {load['p50_ms']:.1f}ms, p99 {load['p99_ms']:.1f}ms); "
        f"cache hit rate {caching['cache_hit_rate']:.0%}, "
        f"{caching['resubmit_recomputed']:.0f} units recomputed on "
        f"{caching['resubmits']} resubmits (artifact: {artifact.name})"
    )

    if args.smoke or args.check:
        failures = []
        if load["errors"]:
            failures.append(
                f"{load['errors']} request errors: {load['error_samples']}"
            )
        if caching["cache_hit_rate"] <= 0:
            failures.append("cache hit rate is zero on overlapping specs")
        if caching["resubmit_recomputed"] != 0:
            failures.append(
                f"resubmission recomputed "
                f"{caching['resubmit_recomputed']:.0f} units"
            )
        if not args.smoke and load["concurrent_clients"] < FULL_CLIENTS:
            failures.append(
                f"only {load['concurrent_clients']} concurrent clients "
                f"(need >= {FULL_CLIENTS})"
            )
        for failure in failures:
            print(f"error: {failure}")
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
