"""Workload body; ``run.py`` starts it in a fresh interpreter.

Reads one JSON job from stdin and writes one JSON record per line to
stdout: first ``{"setup_s": ...}``, then one record per iteration, flushed
as it ends so that a run killed on timeout still reports what it did.

Modes:

* ``setup``  -- import the library and profile the workload's types, once.
* ``run``    -- set up, then repeat the workload body, untraced, while
  another iteration fits in ``seconds`` (at least once).
* ``traced`` -- set up with tracing on, then repeat rounds of one untraced
  and one traced iteration in the same way; a search workload then runs
  the same input once more with ``jobs=2``, untraced.

Measured iterations run with ``jobs=1``.  Tracing covers the workload
body only, never the output check that follows it.  A report pass is
timed in slices of ``SLICE_DOCS`` documents.  Outside the traced run,
every time is scaled to a fixed host speed (``hostspeed.py``), and each
record carries its ``factor``.  Each iteration is cut by a timer after
``iteration_timeout`` seconds; the timed-out iteration is reported as
such and the child stops.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from hostspeed import FixedSpeed, HostSpeed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
PARTITION_JOBS = 2  # the traced run's extra search iteration
SLICE_DOCS = 100


class IterationTimeout(BaseException):
    """Raised by the interval timer; not caught by per-document handlers."""


def _on_alarm(signum, frame):
    raise IterationTimeout()


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _cpu_times() -> tuple[float, float]:
    """(own CPU, CPU of reaped child processes), user plus system."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def set_up(types, tracer: Tracer | None):
    """Import the library the way the CLI does and profile every type."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import friezes
    import friezes.cli  # noqa: F401  (argparse and the CLI's imports)

    if not Path(friezes.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported friezes from {friezes.__file__}, not from {ROOT / 'src'}")
    if tracer is not None:
        tracer.install()
    for name in types:
        friezes.type_profile(friezes.DynkinType.from_name(name))
    if tracer is not None:
        tracer.uninstall()
    return friezes, time.perf_counter() - start


def _digest(columns) -> str:
    return hashlib.sha256(json.dumps(sorted(columns)).encode()).hexdigest()[:16]


def search_body(fz, spec: dict, jobs: int, tracer: Tracer):
    """What ``friezes enumerate <type> --json`` does after argument parsing."""
    t = fz.DynkinType.from_name(spec["type"])
    cfg = fz.SearchConfig(
        dynkin=t, strategy=spec["strategy"], entry_cap_override=spec["cap"], jobs=jobs
    )
    outcome = fz.enumerate_friezes(cfg, progress=fz.search.stderr_progress)
    with tracer.span("formats.payload"):
        return json.dumps(fz.formats.enumerate_payload(outcome, t, spec["strategy"]), indent=2)


def check_search(fz, spec: dict, document: str) -> dict:
    """Summarise an enumeration document and re-check every orbit through
    the read path: emit, parse, verify, period, certificate, caps, and
    ``a_i <= b_i`` for the average logs.  ``bad_orbits`` counts failures,
    plus one when the frieze count breaks the published count bound."""
    payload = json.loads(document)
    t = fz.DynkinType.from_name(spec["type"])
    cap = fz.type_profile(t).period_cap
    report = fz.bounds_report(t, cap)
    bad = int(math.log2(payload["frieze_count"]) > report.count_bound_exponent)
    for orbit in payload["orbits"]:
        f = fz.parse_frieze(fz.emit_frieze(fz.pattern_from_columns(t, orbit["columns"])))
        q, _ = fz.detect_period(f.columns[0], cap)
        ok = (
            not fz.verify_pattern(f)
            and q == orbit["period"] == f.period
            and fz.interval_certificate(f).passed
            and fz.check_pattern_against_bounds(f).passed
            and all(a <= b + 1e-9 for a, b in zip(fz.a_vector(f).a, report.b))
        )
        bad += not ok
    return {
        "friezes": payload["frieze_count"],
        "orbits": len(payload["orbits"]),
        "complete": payload["complete"],
        "digest": _digest(o["columns"] for o in payload["orbits"]),
        "nodes": payload["nodes_explored"],
        "bad_orbits": bad,
    }


def report_document(fz, text: str, tracer: Tracer) -> list:
    """``verify``, ``period``, ``analyze --json`` and ``bounds --json`` at
    four times the stored period, then re-emission.  Returns
    ``[violations, minimal period, all checks passed]``."""
    f = fz.parse_frieze(text)
    violations = fz.verify_pattern(f)
    if violations:
        return [len(violations), 0, False]
    t = f.dynkin
    q, _ = fz.detect_period(f.columns[0], fz.type_profile(t).period_cap)
    p = 4 * f.period
    logvec = fz.a_vector(f, p)
    cert = fz.interval_certificate(f, p)
    check = fz.check_pattern_against_bounds(f, p)
    report = fz.bounds_report(t, p)
    with tracer.span("formats.payload"):
        json.dumps(fz.formats.analyze_payload(f, p, logvec, cert, check), indent=2)
        json.dumps(fz.formats.bounds_payload(report, True), indent=2)
    return [0, q, cert.passed and check.passed and fz.emit_frieze(f) == text]


def report_pass(fz, texts: list[str], tracer: Tracer, speed: HostSpeed, record: dict) -> None:
    """One pass over the corpus.  Fills ``record["docs"]`` with ``[seconds]
    + outcome`` per document and ``record["slices"]`` with ``[wall, cpu]``
    per slice of ``SLICE_DOCS`` documents, as they finish.  A slice's
    times, and its documents', are scaled by the slice's host factor."""
    docs = record["docs"] = []
    slices = record["slices"] = []
    for lo in range(0, len(texts), SLICE_DOCS):
        mark, spent0 = speed.mark(), speed.spent
        cpu0 = _cpu_times()[0]
        start = time.perf_counter()
        for text in texts[lo : lo + SLICE_DOCS]:
            t0, h0 = time.perf_counter(), speed.spent
            try:
                outcome = report_document(fz, text, tracer)
            except Exception as exc:  # one bad document must not end the pass
                outcome = [-1, 0, f"{type(exc).__name__}: {exc}"]
            docs.append([time.perf_counter() - t0 - (speed.spent - h0)] + outcome)
        wall = time.perf_counter() - start - (speed.spent - spent0)
        cpu = _cpu_times()[0] - cpu0 - (speed.spent - spent0)
        factor = speed.factor(mark)
        for doc in docs[lo:]:
            doc[0] *= factor
        slices.append([wall * factor, cpu * factor])


def iterate(fz, job: dict, jobs: int, tracer: Tracer, traced: bool, speed: HostSpeed) -> dict:
    """One timed pass of the workload body, traced or not, then its
    output check, untraced."""
    spec = job["workload"]
    record: dict = {"jobs": jobs, "traced": traced}
    first = len(tracer.spans)
    mark, spent0 = speed.mark(), speed.spent
    own0, kids0 = _cpu_times()
    start = time.perf_counter()
    if traced:
        tracer.install()
    signal.setitimer(signal.ITIMER_REAL, job["iteration_timeout"])
    try:
        if spec["kind"] == "search":
            document = search_body(fz, spec, jobs, tracer)
        else:
            report_pass(fz, job["documents"], tracer, speed, record)
    except IterationTimeout:
        record["error"] = "timeout"
        return record
    except Exception as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        tracer.uninstall()
        handler = speed.spent - spent0
        wall = time.perf_counter() - start - handler
        own1, kids1 = _cpu_times()
        record["factor"] = factor = speed.factor(mark)
        record["wall_s"] = wall * factor
        record["cpu_s"] = ((own1 - own0) + (kids1 - kids0) - handler) * factor
        record["workers_cpu_s"] = kids1 - kids0
        if traced:
            record["layers"] = tracer.totals(first)
    if spec["kind"] == "search":
        try:
            record["result"] = check_search(fz, spec, document)
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def main() -> int:
    job = json.loads(sys.stdin.read())
    signal.signal(signal.SIGALRM, _on_alarm)
    speed = FixedSpeed() if job["mode"] == "traced" else HostSpeed()
    speed.start()
    try:
        return measure(job, speed)
    finally:
        speed.stop()  # SIGPROF would end the interpreter at shutdown


def measure(job: dict, speed: HostSpeed) -> int:
    spec = job["workload"]
    tracer = Tracer()
    traced = job["mode"] == "traced"
    fz, setup_s = set_up(job["types"], tracer if traced else None)
    setup_s -= speed.spent
    factor = speed.factor(0)
    _emit({"setup_s": setup_s * factor, "factor": factor, "layers": tracer.totals() if traced else {}})
    if job["mode"] == "setup":
        return 0

    start = time.perf_counter()
    spent: list[float] = []  # seconds per round
    while not spent or time.perf_counter() - start + statistics.mean(spent) <= job["seconds"]:
        # a round is one iteration, or an untraced and a traced one
        round_start = time.perf_counter()
        order = (False,) if not traced else ((False, True) if len(spent) % 2 == 0 else (True, False))
        for with_trace in order:
            record = iterate(fz, job, 1, tracer, with_trace, speed)
            _emit(record)
            if "error" in record:
                return 0
        spent.append(time.perf_counter() - round_start)
    if traced and spec["kind"] == "search":
        _emit(iterate(fz, job, PARTITION_JOBS, tracer, False, speed))
    if traced:
        out_dir = Path(__file__).resolve().parent / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{spec['name']}.jsonl")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
