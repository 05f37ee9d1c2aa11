"""Runs benchmark requests for ``run.py``, each in a process of its own.

Usage: ``python worker.py SRC_DIR OUT_FILE [--trace]``.  The worker
imports ``fairgate.cli`` once (and, with ``--trace``, installs the spans
of spans.py).  It then reads one JSON request per line on stdin,
``{"argv": [...]}``, and forks a child that calls
``fairgate.cli.main(argv)``: what a user's ``fairgate ...`` command runs
in a fresh process, minus interpreter start and import.  The child's
stdout goes to OUT_FILE, as a user's redirected output would; its
stderr is captured.  Only the call itself is timed.  The child's own
peak RSS comes back from ``wait4``.

Before each request, and once more at end of input, outside the timed
region, the worker times the fixed loop of calibrate.py, so run.py can
scale out the host's speed around each request.  For each request the
worker writes one JSON line to its stdout, with ``cal_s``, the loop time
just before it; at end of input it writes one last ``{"cal_s": ...}``.
It is single-threaded and runs one child at a time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback

import calibrate


def serve(argv, out_file, tracer, reply_fd) -> None:
    """Child side: run one request and write its reply to ``reply_fd``."""
    import fairgate.cli

    stderr = io.StringIO()
    code, error = None, None
    with open(out_file, "w", encoding="utf-8") as stdout:
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = fairgate.cli.main(argv)
                else:
                    code = tracer.run_root(fairgate.cli.main, argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code!r})"
        except Exception:
            error = traceback.format_exc()
        elapsed_ns = time.perf_counter_ns() - start
    reply = {"code": code, "ns": elapsed_ns, "error": error, "stderr": stderr.getvalue()}
    if tracer is not None:
        reply["self_ns"] = dict(tracer.self_ns)
        reply["counts"] = dict(tracer.counts)
    data = json.dumps(reply).encode("utf-8")
    while data:
        data = data[os.write(reply_fd, data):]


def run_forked(argv, out_file, tracer) -> dict:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            serve(argv, out_file, tracer, write_fd)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as reader:
        for chunk in iter(lambda: reader.read(1 << 16), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not chunks:
        return {"code": None, "ns": 0, "error": f"request process ended with status {status}",
                "stderr": "", "maxrss_kib": usage.ru_maxrss}
    reply = json.loads(b"".join(chunks))
    reply["maxrss_kib"] = usage.ru_maxrss
    return reply


def main() -> int:
    src_dir, out_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src_dir)
    import fairgate.cli  # noqa: F401  (imported once, before any fork)

    tracer = None
    if "--trace" in sys.argv[3:]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        gc.collect()
        cal_s = calibrate.measure()
        reply = run_forked(argv, out_file, tracer)
        reply["cal_s"] = cal_s
        print(json.dumps(reply), flush=True)
    gc.collect()
    print(json.dumps({"cal_s": calibrate.measure()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
