"""Benchmark of the friezes library.

    python3 perfbench/run.py --workload a4-row --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root.  Each measurement runs in a fresh
interpreter (``child.py``) that imports the library from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; ``--workload all`` runs every workload,
each in its own process.  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

End-to-end times are scaled to a fixed host speed: the child times a
reference loop between the library's own steps and reports each interval
as it would have taken where the loop takes 1 ms (``hostspeed.py``).  The
median scale factor is printed with the metrics.

Workloads, expected outputs, the map from layer metrics to the end-to-end
metrics they should move, and the seed baseline are in
``workloads.json``.  The seed only shapes the ``reports`` corpus; the
search workloads have fixed inputs.

Every iteration's output is checked.  An enumeration must reproduce the
stored frieze count, orbit count, ``complete`` flag and orbit digest, and
each orbit must pass the read path again; a report document must be
accepted with the right minimal period and passing certificates, or,
when corrupted, rejected.  Exceptions and timeouts count as failed
operations; ``error_rate`` is failed / attempted.  A failure never stops
the run.  The run exits 1 without a result when the library cannot be
set up, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import PARTITION_JOBS
from corpus import build_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = CONFIG["workloads"]
RUN_LIMIT_S = 170  # the whole run, children included
SETUP_ALLOWANCE_S = 30
SETUP_SAMPLES = 5
# One iteration is a counted failure past this.  On a 2-vCPU VM, A4
# row_seeded takes 4-10 s and A4 column_dfs, a plausible regression, 76 s.
ITERATION_TIMEOUT_S = 30

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("doc_p50_ms", "ms"),
    ("doc_p95_ms", "ms"),
)

# per-layer metric -> (unit, traced function, field: 0 calls, 1 self seconds)
SPAN_METRICS = {
    "mesh.forward_values.calls": ("count", "mesh.forward_values", 0),
    "mesh.forward_values.s": ("s", "mesh.forward_values", 1),
    "mesh.verify_pattern.calls": ("count", "mesh.verify_pattern", 0),
    "mesh.verify_pattern.s": ("s", "mesh.verify_pattern", 1),
    "mesh.detect_period.s": ("s", "mesh.detect_period", 1),
    "bounds.interval_certificate.s": ("s", "bounds.interval_certificate", 1),
    "bounds.a_vector.s": ("s", "bounds.a_vector", 1),
    "bounds.check_pattern_against_bounds.s": ("s", "bounds.check_pattern_against_bounds", 1),
    "bounds.bounds_report.s": ("s", "bounds.bounds_report", 1),
    "catalog.type_profile.calls": ("count", "catalog.type_profile", 0),
    "catalog.type_profile.s": ("s", "catalog.type_profile", 1),
    "formats.parse_frieze.s": ("s", "formats.parse_frieze", 1),
    "formats.emit_frieze.s": ("s", "formats.emit_frieze", 1),
    "formats.payload.s": ("s", "formats.payload", 1),
}
SEARCH_METRICS = {
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.self_s": "s",
    "search.friezes": "count",
    "search.orbits": "count",
    "search.workers.cpu_s": "s",
    "search.workers.utilization": "ratio",
    "search.parallel_speedup": "ratio",
}


class SetupFailed(RuntimeError):
    """The library could not be imported or profiled: no result."""


class Child:
    """One fresh interpreter running ``child.py`` on one job."""

    def __init__(self, job: dict, timeout: float):
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            start_new_session=True,  # its own process group, pool workers included
        )
        self.timed_out = False
        try:
            out, err = proc.communicate(json.dumps(job).encode(), timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            self.timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        _wait_group_gone(proc.pid)
        self.returncode = proc.returncode
        lines = out.decode().splitlines()
        self.records = [json.loads(line) for line in lines if line.startswith("{")]
        if not self.records or "setup_s" not in self.records[0]:
            raise SetupFailed(
                f"{job['workload']['name']}: set-up did not finish "
                f"(exit {proc.returncode}):\n{err.decode(errors='replace')[-2000:]}"
            )
        self.setup = self.records[0]
        self.iterations = self.records[1:]

    @property
    def ended_cleanly(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of the child's group is left (pool workers)."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _types(spec: dict, documents) -> list[str]:
    if spec["kind"] == "search":
        return [spec["type"]]
    names = {d.dynkin for d in documents}
    return sorted(names, key=lambda s: (s[0], int(s[1:])))


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def judge(spec: dict, child: Child, documents) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations; describe the failures."""
    attempted = failed = 0
    problems: list[str] = []

    def fail(what: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 10:
            problems.append(what)

    for rec in child.iterations:
        if spec["kind"] == "search":
            attempted += 1
            if "error" in rec:
                fail(f"jobs={rec['jobs']}: {rec['error']}")
                continue
            got = rec["result"]
            want = spec["expect"]
            wrong = [k for k in want if got[k] != want[k]]
            if wrong or got["bad_orbits"]:
                fail(f"jobs={rec['jobs']}: {', '.join(f'{k} {got[k]}' for k in wrong)}"
                     f" bad orbits {got['bad_orbits']}")
            continue
        docs = rec.get("docs", [])
        for doc, (_, violations, period, ok) in zip(documents, docs):
            attempted += 1
            if doc.valid and not (violations == 0 and period == doc.min_period and ok is True):
                fail(f"{doc.dynkin} document: violations {violations} period {period} ({ok})")
            elif not doc.valid and not violations > 0:
                fail(f"corrupted {doc.dynkin} document accepted ({ok})")
        if "error" in rec:
            attempted += 1
            fail(f"pass stopped after {len(docs)} documents: {rec['error']}")
    if not child.ended_cleanly:
        attempted += 1
        fail("child timed out" if child.timed_out else f"child exit {child.returncode}")
    return attempted, failed, problems


def end_to_end(spec: dict, child: Child, setup_samples, peak_rss_kb: int) -> dict:
    done = [r for r in child.iterations if "error" not in r]
    if spec["kind"] == "search":
        walls = [r["wall_s"] for r in done]
        cpus = [r["cpu_s"] for r in done]
        latencies = walls  # one enumeration document each
    else:
        # A pass is the sum over its slices of each slice's median over the
        # passes; a document's latency is its median over the passes.
        slices = list(zip(*(r["slices"] for r in done)))
        walls = [sum(statistics.median(s[0] for s in same) for same in slices)]
        cpus = [sum(statistics.median(s[1] for s in same) for same in slices)]
        latencies = [statistics.median(d[0] for d in same) for same in zip(*(r["docs"] for r in done))]
    if not latencies:  # every iteration failed, and was counted
        walls = cpus = latencies = [0.0]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_kb / 1024,
        "doc_p50_ms": 1000 * statistics.median(latencies),
        "doc_p95_ms": 1000 * _percentile(latencies, 95),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(spec: dict, child: Child) -> dict:
    untraced = [r for r in child.iterations if not r["traced"] and "error" not in r]
    traced = [r for r in child.iterations if r["traced"] and "layers" in r]
    own = [r["wall_s"] for r in untraced if r["jobs"] == 1]
    pooled = [r for r in untraced if r["jobs"] == PARTITION_JOBS]
    per_traced = max(len(traced), 1)

    def layer(name: str, field: int) -> float:
        # set-up once, plus the mean over traced iterations
        total = child.setup["layers"].get(name, [0, 0.0, 0.0])[field]
        total += sum(r["layers"].get(name, [0, 0.0, 0.0])[field] for r in traced) / per_traced
        return int(total) if field == 0 and total == int(total) else total

    values: dict = {name: layer(fn, field) for name, (_, fn, field) in SPAN_METRICS.items()}
    values.update(dict.fromkeys(SEARCH_METRICS, 0))
    if spec["kind"] == "search":
        results = [r["result"] for r in traced if "result" in r]
        if results:
            values["search.nodes"] = results[0]["nodes"]
            values["search.friezes"] = results[0]["friezes"]
            values["search.orbits"] = results[0]["orbits"]
        busy = layer("search.enumerate_friezes", 2)
        values["search.self_s"] = layer("search.enumerate_friezes", 1)
        values["search.nodes_per_s"] = values["search.nodes"] / busy if busy else 0
        if own and pooled:
            pooled_wall = statistics.median(r["wall_s"] for r in pooled)
            workers = statistics.median(r["workers_cpu_s"] for r in pooled)
            values["search.parallel_speedup"] = statistics.median(own) / pooled_wall
            values["search.workers.cpu_s"] = workers
            values["search.workers.utilization"] = workers / (PARTITION_JOBS * pooled_wall)
    traced_walls = [r["wall_s"] for r in traced]
    values["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(own) if own and traced_walls else 0
    )
    units = {name: unit for name, (unit, _, _) in SPAN_METRICS.items()}
    units.update(SEARCH_METRICS)
    units["trace.overhead"] = "ratio"
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    spec = dict(WORKLOADS[name], name=name)
    documents = build_corpus(seed) if spec["kind"] == "reports" else []
    job = {
        "workload": spec,
        "types": _types(spec, documents),
        "seconds": seconds,
        "iteration_timeout": ITERATION_TIMEOUT_S,
        "documents": [d.text for d in documents],
    }
    body_limit = seconds + 3 * ITERATION_TIMEOUT_S + SETUP_ALLOWANCE_S
    host_factor = 1.0
    if trace:
        child = Child(dict(job, mode="traced"), min(body_limit, remaining()))
        metrics = per_layer(spec, child)
    else:
        setup_job = dict(job, mode="setup", documents=[])
        setup_samples = []
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(Child(setup_job, min(SETUP_ALLOWANCE_S, remaining())).setup["setup_s"])
        child = Child(dict(job, mode="run"), min(body_limit, remaining()))
        setup_samples.append(child.setup["setup_s"])
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = end_to_end(spec, child, setup_samples, peak_kb)
        host_factor = statistics.median(r["factor"] for r in child.records if "factor" in r)
    attempted, failed, problems = judge(spec, child, documents)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "host_factor": host_factor,
    }


def print_human(name: str, seed: int, trace: bool, result: dict) -> None:
    print(
        f"workload {name}  seed {seed}  trace {int(trace)}  "
        f"attempted {result['attempted']}  failed {result['failed']}"
    )
    rows = dict(result["metrics"])
    if not trace:
        rows["error_rate"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        rows["host factor (times scaled by)"] = {"value": result["host_factor"], "unit": "ratio"}
    for metric, entry in rows.items():
        print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def run_all(args) -> int:
    """Every workload, each through its own run of this script."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "friezes" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_human(args.workload, args.seed, bool(args.trace), result)
    del result["problems"], result["host_factor"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
