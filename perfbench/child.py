"""One benchmark operation, run in a fresh interpreter.

Usage (from ``run.py``; the first argument is the repository root):

    python3 child.py ROOT setup
    python3 child.py ROOT cli [--trace] -- NSCHECK-ARGS...
    python3 child.py ROOT grid [--trace] TASKS-JSON

A speed probe (``speedprobe.py``) runs from before nscheck is imported until exit,
and its summary goes to stderr as the last line, ``@speed {...}``.
``setup`` imports the CLI and builds its parser (``--help``).  ``cli``
hands the arguments to ``nscheck.cli.run``; untraced, the report goes
straight to stdout and the exit code is the CLI's.  ``grid`` runs the
library verdicts listed in TASKS-JSON and prints one JSON object with each
verdict and its latency.  With ``--trace`` the layer tracer is installed
first and the child prints one JSON object with the report and the
per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.abspath(sys.argv[1])
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

from speedprobe import SpeedProbe, reference_seconds  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()

from nscheck import cli  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"nscheck imported from {cli.__file__}, not from {SRC}")


def run_grid(tasks: list[list[str]], tracer) -> list[list]:
    """Run each verdict task; returns [label, answer, seconds] per task, the
    seconds at the reference speed of the probe samples taken meanwhile
    (or of all samples so far, for a verdict shorter than one interval)."""
    from nscheck.algebra import AlgebraMode
    from nscheck.analysis import find_intertwiner, simplicity_verdict
    from nscheck.modules import Window, parse_module_descriptor
    from workloads import GRID_GEN_RANGE, GRID_WINDOW

    window = Window(*GRID_WINDOW)
    results = []
    for op, task in enumerate(tasks):
        if tracer is not None:
            tracer.op = op
        mark = len(PROBE.samples)
        start = time.perf_counter()
        if task[0] == "iso":
            m1, m2 = (parse_module_descriptor(d) for d in task[1:3])
            found = find_intertwiner(m1, m2, window, GRID_GEN_RANGE) is not None
            answer = "found" if found else "absent"
        else:
            mode = AlgebraMode.parse(task[2]) if len(task) > 2 else None
            mod = parse_module_descriptor(task[1], algebra_mode=mode)
            answer = simplicity_verdict(mod, window, GRID_GEN_RANGE).kind
        elapsed = time.perf_counter() - start
        speed = PROBE.summary(mark)
        if not speed["n"]:
            speed = dict(PROBE.summary(), probe_s=0.0)
        results.append([" ".join(task), answer, reference_seconds(elapsed, speed) or elapsed])
    return results


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(["--help"])
    traced = rest[:1] == ["--trace"]
    rest = rest[1:] if traced else rest
    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "grid":
        out = {"results": run_grid(json.loads(rest[0]), tracer)}
    elif mode == "cli":
        args = rest[1:] if rest[:1] == ["--"] else rest
        if tracer is None:
            return cli.run(args)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(args)
        out = {"exit": code, "report": buffer.getvalue()}
    else:
        sys.exit(f"unknown child mode {mode!r}")
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["missing"] = tracer.missing
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[2:])
    finally:
        PROBE.stop()
        sys.stdout.flush()
        sys.stderr.write("\n@speed " + json.dumps(PROBE.summary()) + "\n")
    sys.exit(code)
