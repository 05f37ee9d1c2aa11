"""fairgate benchmark: time to verdict end to end, with a traced per-layer split.

Usage, from the root of a checkout::

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: graph-requests, graph-intersect, data-audit, oracle-sweep (see
workloads.py and WORKLOADS.md).  Each run is a closed loop with one
client: request ``i + 1`` is sent when request ``i`` has answered.
A fresh single-threaded worker process (worker.py) imports fairgate and
forks one child per request, which calls ``fairgate.cli.main(argv)``.
Every request is checked against the references in reference.py,
outside the timed region; a wrong verdict or output, exit 2 or 3, an
uncaught exception or ``SystemExit`` counts as a failed request.
Times are scaled by the host's speed around each request, measured
with calibrate.py, and reported in seconds at ``calibrate.NOMINAL_S``.

``--trace 0`` runs a fixed number of requests, about ``--seconds`` of
work at nominal speed, and prints the end-to-end metrics.  ``--trace 1``
runs half as many twice, first plain and then with the spans of spans.py
installed, and prints the per-layer metrics.  Before timing,
every run replays the four golden commands of ``tests/test_cli.py`` and
requires byte equality with ``tests/golden/*.json``.

Each run records the sha256 of every request's stdout under
``benchmark/.work/state``; a later run with the same workload and seed
must reproduce them exactly.  The traced run records its counts there
too, keyed by a digest of the code under test, so they are compared only
between runs of identical code.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import calibrate
import reference
from spans import FIRING_NAMES
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
SCHEMAS = SRC / "fairgate" / "schemas"
WORK = BENCH / ".work"

# Fresh processes timed importing fairgate.cli, after one that warms the
# bytecode cache; setup_s is their median.
SETUP_SPAWNS = 7
# The worker is killed after RUN_DEADLINE_S, so a run on a very slow host
# fails rather than running past 180 s.
RUN_DEADLINE_S = 160
# Requests per run: --seconds of work at these nominal rates (host-scaled
# requests/s on a 2-vCPU x86-64 cloud VM), at least MIN_REQUESTS so that
# at least 10 lie beyond p90, rounded up to whole cycles of the request
# mix.  The count does not depend on the host's speed, so every run of a
# workload and seed times the same requests.
NOMINAL_RATE = {"graph-requests": 15.0, "graph-intersect": 11.0, "data-audit": 6.0, "oracle-sweep": 20.0}
MIX_CYCLE = {"graph-requests": 15, "graph-intersect": 6, "data-audit": 16, "oracle-sweep": 3}
MIN_REQUESTS = 100
MIN_BEYOND_P90 = 10

_DATA = TESTS / "data"
GOLDEN = (
    ("weaken_loan_ms.json", ["weaken", "--graph", str(_DATA / "loan.cg"), "--judgment",
                             str(_DATA / "loan.jdg"), "--attr", "MS=married"]),
    ("paths_loan.json", ["paths", "--graph", str(_DATA / "loan.cg")]),
    ("intersect_table1.json", ["intersect", "--dataset", str(_DATA / "table1.csv"),
                               "--target", "t", "--protected", "a1,a2"]),
    ("demo_table1.json", ["demo-table1"]),
)

CHECKERS = {
    "paths": reference.check_paths,
    "weaken": reference.check_weaken,
    "if-graph": reference.check_if_graph,
    "intersect-graph": reference.check_intersect_graph,
    "if-data": reference.check_if_data,
    "intersect-data": reference.check_intersect_data,
    "oracle": reference.check_oracle,
}

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mib": "MiB",
    "verdict_share": "ratio",
    "setup_s": "s",
}


class RunFailure(Exception):
    """The run cannot produce a trustworthy result."""


def request_count(workload: str, seconds: float, minimum: int) -> int:
    cycle = MIX_CYCLE[workload]
    wanted = max(minimum, seconds * NOMINAL_RATE[workload])
    return math.ceil(wanted / cycle) * cycle


def code_digest() -> str:
    """sha256 over fairgate's modules and schemas and the benchmark's own modules."""
    digest = hashlib.sha256()
    files = sorted((SRC / "fairgate").rglob("*.py")) + sorted(SCHEMAS.glob("*.json"))
    for path in files + sorted(BENCH.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _environment() -> dict:
    env = dict(os.environ)
    env.pop("FAIRGATE_FACT_BUDGET", None)  # every request runs on the default budget
    return env


def measure_setup() -> float:
    """Median host-scaled time for a fresh process to import fairgate.cli."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; import calibrate;"
        " before = calibrate.measure(); t = time.perf_counter(); import fairgate.cli;"
        " took = time.perf_counter() - t; print(took, (before + calibrate.measure()) / 2)"
    )
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code, str(BENCH), str(SRC)], cwd=ROOT, env=_environment(),
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RunFailure(f"importing fairgate.cli failed: {done.stderr.strip()}")
        took, cal_s = map(float, done.stdout.split())
        times.append(took * calibrate.NOMINAL_S / cal_s)
    return statistics.median(times[1:])


class Worker:
    """One worker.py process; ``call`` sends a request and waits for its answer."""

    def __init__(self, out_file: Path, trace: bool, deadline_s: float):
        self.out_file = out_file
        argv = [sys.executable, str(BENCH / "worker.py"), str(SRC), str(out_file)]
        # A session of its own, so killing it also kills a request it forked.
        self.proc = subprocess.Popen(
            argv + (["--trace"] if trace else []), cwd=ROOT, env=_environment(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.timer = threading.Timer(max(deadline_s, 1.0), self._kill_group)
        self.timer.start()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def call(self, argv) -> dict:
        try:
            self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise RunFailure("the worker died or ran past the run deadline") from None
        line = self.proc.stdout.readline()
        if not line:
            raise RunFailure("the worker died or ran past the run deadline")
        reply = json.loads(line)
        reply["stdout"] = self.out_file.read_bytes()
        return reply

    def finish(self) -> float:
        """End the worker and return its last calibration loop time."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            raise RunFailure("the worker died before its last calibration") from None
        line = self.proc.stdout.readline()
        self.proc.wait()
        self.timer.cancel()
        if not line:
            raise RunFailure("the worker died before its last calibration")
        return json.loads(line)["cal_s"]

    def kill(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self._kill_group()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass


def replay_golden(worker: Worker) -> list:
    problems = []
    for name, argv in GOLDEN:
        reply = worker.call(argv)
        want = (TESTS / "golden" / name).read_bytes()
        if reply["error"] or reply["stderr"] or reply["stdout"] != want:
            problems.append(f"golden {name}: output differs from tests/golden/{name}")
    return problems


def check(request, reply, validators) -> list:
    if reply["error"]:
        return [f"uncaught {reply['error'].strip().splitlines()[-1]}"]
    if reply["code"] not in (0, 1):
        return [f"exit {reply['code']}: {reply['stderr'].strip()}"]
    problems = [f"stderr: {reply['stderr'].strip()}"] if reply["stderr"] else []
    try:
        payload = json.loads(reply["stdout"])
    except ValueError:
        return problems + ["stdout is not JSON"]
    problems += validators[request.schema].errors(payload)[:5]
    if problems:
        return problems
    return CHECKERS[request.kind](request.subject, payload, reply["code"], request.case)


class Pass:
    """Requests run through one worker, with their checks and digests.

    ``latencies`` and the span self times ``self_s`` are host-scaled:
    each request's wall time times ``calibrate.NOMINAL_S`` over the mean
    of the calibration loop times just before and just after it.  They
    are set by ``finish``.
    """

    def __init__(self):
        self.raw_latencies = []
        self.cal_s = []
        self.latencies = []
        self.span_ns = []
        self.self_s = Counter()
        self.rss_mib = []
        self.failed = 0
        self.digests = []
        self.counts = Counter()
        self.stdout_bytes = 0

    def run(self, worker, request, validators):
        reply = worker.call(request.argv)
        problems = check(request, reply, validators)
        if problems:
            self.failed += 1
            print(f"request {len(self.raw_latencies)} {request.argv[0]} failed: "
                  + "; ".join(problems[:3]), file=sys.stderr)
        self.raw_latencies.append(reply["ns"] / 1e9)
        self.cal_s.append(reply["cal_s"])
        self.rss_mib.append(reply["maxrss_kib"] / 1024)
        self.digests.append(hashlib.sha256(reply["stdout"]).hexdigest())
        self.stdout_bytes += len(reply["stdout"])
        self.span_ns.append(reply.get("self_ns", {}))
        self.counts.update(reply.get("counts", {}))

    def finish(self, worker):
        cal = self.cal_s + [worker.finish()]
        for raw, spans, before, after in zip(self.raw_latencies, self.span_ns, cal, cal[1:]):
            scale = calibrate.NOMINAL_S / ((before + after) / 2)
            self.latencies.append(raw * scale)
            for layer, ns in spans.items():
                self.self_s[layer] += ns / 1e9 * scale

    @property
    def verdicts_per_s(self) -> float:
        return (len(self.latencies) - self.failed) / sum(self.latencies)


def end_to_end(stream, validators, workdir, count, deadline):
    worker = Worker(workdir / "stdout.json", False, deadline - time.monotonic())
    try:
        problems = replay_golden(worker)
        p = Pass()
        for _ in range(count):
            p.run(worker, next(stream), validators)
        p.finish(worker)
    finally:
        worker.kill()
    attempted = len(p.latencies)
    p90 = _p90(p.latencies)
    beyond_p90 = sum(x > p90 for x in p.latencies)
    if beyond_p90 < MIN_BEYOND_P90:
        problems.append(f"only {beyond_p90} samples beyond p90, fewer than {MIN_BEYOND_P90}")
    metrics = {
        "verdicts_per_s": p.verdicts_per_s,
        "latency_p50_s": statistics.median(p.latencies),
        "latency_p90_s": p90,
        "peak_rss_mib": statistics.median(p.rss_mib),
        "verdict_share": (attempted - p.failed) / attempted,
    }
    raw_busy = sum(p.raw_latencies)
    notes = {
        "samples": attempted,
        "samples_beyond_p90": beyond_p90,
        "failed_share": p.failed / attempted,
        "wall_busy_s": raw_busy,
        "wall_verdicts_per_s": (attempted - p.failed) / raw_busy,
        "wall_latency_p50_s": statistics.median(p.raw_latencies),
        "wall_latency_p90_s": _p90(p.raw_latencies),
        "host_slowdown": raw_busy / sum(p.latencies),
        "peak_rss_max_mib": max(p.rss_mib),
    }
    return p, metrics, notes, problems


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def traced(stream, validators, workdir, count, deadline):
    requests = [next(stream) for _ in range(count)]
    passes = []
    problems = []
    for trace in (False, True):
        worker = Worker(workdir / "stdout.json", trace, deadline - time.monotonic())
        try:
            problems += replay_golden(worker)
            p = Pass()
            for request in requests:
                p.run(worker, request, validators)
            p.finish(worker)
        finally:
            worker.kill()
        passes.append(p)
    plain, spanned = passes
    if plain.digests != spanned.digests:
        problems.append("tracing changed the stdout of some request")
    s, c = spanned.self_s, spanned.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "graph.load_s": s["graph.load"],
        "graph.load_calls": c["graph.load_calls"],
        "judgments.parse_s": s["judgments.parse"],
        "judgments.serialize_s": s["judgments.serialize"],
        "closure.close_s": s["closure.close"],
        "closure.close_calls": c["closure.close_calls"],
        "closure.mediate_facts": c["closure.mediate_facts"],
        "closure.path_facts": c["closure.path_facts"],
        "closure.derivations": c["closure.derivations"],
        "closure.trace_records": c["closure.trace_records"],
        "closure.useful_ratio": ratio(c["closure.path_facts"], c["closure.derivations"]),
        **{name: c[name] for name in FIRING_NAMES.values()},
        "closure.dump_s": s["closure.dump"],
        "weakening.evaluate_s": s["weakening.evaluate"],
        "weakening.evaluate_calls": c["weakening.evaluate_calls"],
        "weakening.facts_examined": c["weakening.facts_examined"],
        "weakening.trace_records_scanned": c["weakening.trace_records_scanned"],
        "weakening.to_json_s": s["weakening.to_json"],
        "fairness.load_s": s["fairness.load"],
        "fairness.rows_loaded": c["fairness.rows_loaded"],
        "fairness.match_s": s["fairness.match"],
        "fairness.match_calls": c["fairness.match_calls"],
        "fairness.rows_scanned": c["fairness.rows_scanned"],
        "fairness.match_ratio": ratio(c["fairness.rows_matched"], c["fairness.rows_scanned"]),
        "fairness.ci_s": s["fairness.ci"],
        "fairness.ci_calls": c["fairness.ci_calls"],
        "fairness.ci_cells": c["fairness.ci_cells"],
        "fairness.intersect_s": s["fairness.intersect"],
        "fairness.to_json_s": s["fairness.to_json"],
        "sweep.agreement_s": s["sweep.agreement"],
        "sweep.oracle_s": s["sweep.oracle"],
        "sweep.graphs": c["sweep.graphs"],
        "sweep.checks": c["sweep.checks"],
        "sweep.paths_enumerated": c["sweep.paths_enumerated"],
        "sweep.enumerate_dags_s": s["sweep.enumerate_dags"],
        "cli.self_s": s["cli.argparse"] + s["cli.render"] + s["cli.print"],
        "cli.stdout_bytes": spanned.stdout_bytes,
        "trace.requests": count,
        "trace.overhead_ratio": ratio(spanned.verdicts_per_s, plain.verdicts_per_s),
        "trace.unattributed_share": ratio(s["cli.main"], sum(spanned.latencies)),
    }
    # Printed only: the part of cli.self_s spent in json.dumps and in print.
    notes = {"cli.render_s": s["cli.render"], "cli.print_s": s["cli.print"]}
    return passes, metrics, notes, problems


PER_LAYER_UNITS_BY_SUFFIX = (("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio"), ("_bytes", "B"))


# Per-layer metrics that depend on timing; every other one is a pure
# function of the requests and must repeat exactly.
TIMED_PER_LAYER = {"trace.overhead_ratio", "trace.unattributed_share"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def compare_state(state_file: Path, digests: list, counts: dict | None, count_key: str) -> list:
    """Check digests and counts against earlier runs of this workload and seed, then record them.

    Stdout digests are compared whatever the code: fairgate's output must
    stay byte-identical.  Counts are compared only under the same
    ``count_key``, which names the code under test and the request count.
    """
    state = {"digests": [], "counts": {}}
    if state_file.exists():
        state = json.loads(state_file.read_text(encoding="utf-8"))
    problems = []
    known = state["digests"]
    if digests[: len(known)] != known[: len(digests)]:
        problems.append(f"stdout digests differ from an earlier run ({state_file.name})")
    if len(digests) > len(known):
        state["digests"] = digests
    if counts is not None:
        earlier = state["counts"].get(count_key)
        if earlier is not None and earlier != counts:
            changed = sorted(k for k in counts if counts[k] != earlier.get(k))
            problems.append(f"per-layer counts differ from an earlier run: {changed}")
        state["counts"][count_key] = counts
    tmp = state_file.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state), encoding="utf-8")
    os.replace(tmp, state_file)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [p for p in (SRC / "fairgate" / "cli.py", TESTS / "golden", TESTS / "data") if not p.exists()]
    if missing:
        print(f"error: not a fairgate checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    validators = {p.name: reference.SchemaValidator(p) for p in sorted(SCHEMAS.glob("*.schema.json"))}
    workdir = WORK / "inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    state_dir = WORK / "state"
    workdir.mkdir(parents=True)
    state_dir.mkdir(parents=True, exist_ok=True)
    state_file = state_dir / f"{args.workload}-{args.seed}.json"
    try:
        stream = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            count = request_count(args.workload, args.seconds / 2, 1)
            passes, metrics, notes, problems = traced(stream, validators, workdir, count, deadline)
            counts = {k: v for k, v in metrics.items()
                      if per_layer_unit(k) != "s" and k not in TIMED_PER_LAYER}
            count_key = f"{code_digest()}:{count}"
            problems += compare_state(state_file, passes[0].digests, counts, count_key)
            attempted = sum(len(p.latencies) for p in passes)
            failed = sum(p.failed for p in passes)
            units = {k: per_layer_unit(k) for k in metrics}
        else:
            setup_s = measure_setup()
            count = request_count(args.workload, args.seconds, MIN_REQUESTS)
            p, metrics, notes, problems = end_to_end(stream, validators, workdir, count, deadline)
            metrics["setup_s"] = setup_s
            problems += compare_state(state_file, p.digests, None, "")
            attempted, failed = len(p.latencies), p.failed
            units = END_TO_END_UNITS
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}:"
          f" {attempted} requests, {failed} failed")
    for name, value in notes.items():
        print(f"  {name:34s} {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
