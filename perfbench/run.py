"""nscheck benchmark: cold verdict workloads with known-answer checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selftest

Run from the repository root or anywhere: the repository is the parent of
this directory, and the program is imported from its ``src``.  Every
operation runs in a fresh interpreter (``child.py``), because the caches
are process-global and CLI users pay for them cold on each invocation.
One closed-loop client keeps one operation in flight; a new one starts
only while it can end within ``--seconds``.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from speedprobe import reference_seconds  # noqa: E402

WORKLOADS = ("structure", "catalogue", "grid", "formal")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 11  # after one discarded warm-up probe
CHILD_TIMEOUT_S = 170.0


class Child:
    """Outcome of one fresh-interpreter run."""

    def __init__(self, wall_s: float, rss_mb: float, code: int, out: bytes, err: bytes):
        self.wall_s, self.rss_mb, self.code, self.out = wall_s, rss_mb, code, out
        lines = err.decode(errors="replace").rstrip().splitlines()
        speed = json.loads(lines[-1][7:]) if lines and lines[-1].startswith("@speed ") else None
        self.err = "\n".join(lines[:-1] if speed else lines)
        self.speed = speed["speed"] if speed else None
        self.ref_s = reference_seconds(wall_s, speed)

    def json(self) -> dict:
        return json.loads(self.out.decode().strip().splitlines()[-1])


def spawn(root: str, args: list[str]) -> Child:
    """Run child.py; wall time is spawn to exit and peak RSS is the child's
    own, from wait4."""
    cmd = [sys.executable, "-I", CHILD, root] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=root)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, err[0] if err else b"")


class Op:
    """One timed operation: a CLI pass or a grid sweep."""

    def __init__(self):
        self.wall_s = 0.0  # at the reference speed
        self.raw_wall_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies_s: list[float] = []
        self.problems: list[str] = []
        self.layers: dict[str, float] = {}
        self.missing: list[str] = []

    def add(self, child: Child, attempted: int, problems: list[str], failed: int) -> None:
        if child.ref_s is None:
            problems = problems + [f"no speed probe from the child: {child.err[-300:]!r}"]
            failed = max(failed, 1)
        self.wall_s += child.wall_s if child.ref_s is None else child.ref_s
        self.raw_wall_s += child.wall_s
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    @staticmethod
    def total(ops: list["Op"]) -> "Op":
        """Counts, problems and latencies of several operations together."""
        out = Op()
        for op in ops:
            out.attempted += op.attempted
            out.failed += op.failed
            out.problems += op.problems
            out.latencies_s += op.latencies_s
            out.missing += op.missing
        return out

    def add_layers(self, doc: dict, speed: float | None) -> None:
        """Sum a traced child's layer figures; times go to the reference speed."""
        for key, value in doc.get("layers", {}).items():
            if key.endswith("_s") and speed:
                value *= speed
            self.layers[key] = self.layers.get(key, 0) + value
        self.missing += doc.get("missing", [])


def cli_op(root: str, commands: list[list[str]], traced: bool, sabotage: bool = False) -> Op:
    op = Op()
    for argv in commands:
        child = spawn(root, ["cli"] + (["--trace"] if traced else []) + ["--"] + argv)
        code, report = child.code, child.out
        if traced:
            try:
                doc = child.json()
            except (ValueError, IndexError):
                op.add(child, 1, [f"traced child failed: {child.err[-300:]!r}"], 1)
                continue
            op.add_layers(doc, child.speed)
            op.layers["cli.report_bytes"] = (op.layers.get("cli.report_bytes", 0)
                                             + len(doc["report"].encode()))
            code, report = doc["exit"], doc["report"].encode()
        problems = [f"{argv[0]}: {p}" for p in wl.check_cli(argv, code, report, sabotage)]
        op.add(child, 1, problems, 1 if problems else 0)
    return op


def grid_op(root: str, tasks: list[tuple[list[str], str]], traced: bool) -> Op:
    op = Op()
    child = spawn(root, ["grid"] + (["--trace"] if traced else [])
                  + [json.dumps([t for t, _ in tasks])])
    try:
        doc = child.json()
        results = doc["results"]
    except (ValueError, IndexError, KeyError):
        doc, results = {}, []
    problems = wl.check_grid(tasks, results)
    failed = len(problems)
    if child.code != 0:
        problems.append(f"grid child exit {child.code}: {child.err[-300:]!r}")
        failed = max(failed, 1)
    op.add(child, len(tasks), problems, failed)
    op.latencies_s = [r[2] for r in results]
    op.add_layers(doc, child.speed)
    return op


def workload_op(root: str, name: str, seed: int, index: int, traced: bool = False,
                smoke: bool = False) -> Op:
    if name == "grid":
        size = (wl.GRID_SMOKE_POINTS, wl.GRID_SMOKE_B_VALUES) if smoke else ()
        return grid_op(root, wl.grid_tasks(seed, index, *size), traced)
    commands = (wl.SMOKE_COMMANDS if smoke else wl.CLI_COMMANDS)[name]
    return cli_op(root, commands, traced)


def workload_sizes(name: str) -> dict:
    if name == "grid":
        return {"points_per_sweep": wl.GRID_POINTS, "b_values": wl.GRID_B_VALUES,
                "verdicts_per_sweep": 2 * wl.GRID_POINTS + 2 * wl.GRID_B_VALUES
                + len(wl.ISO_PAIRS),
                "window": list(wl.GRID_WINDOW), "gen_range": wl.GRID_GEN_RANGE}
    return {"commands": ["nscheck " + " ".join(a) for a in wl.CLI_COMMANDS[name]]}


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, name: str, seed: int, seconds: float, traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "sizes": workload_sizes(name),
    }


def setup_children(root: str, probes: int) -> list[Child]:
    """Interpreter start + import nscheck.cli + parser build; the first
    probe compiles bytecode and warms the page cache and is discarded."""
    children = []
    for _ in range(probes + 1):
        child = spawn(root, ["setup"])
        if child.code != 0 or child.ref_s is None:
            raise RuntimeError(f"setup probe failed: {child.err[-500:]!r}")
        children.append(child)
    return children[1:]


def measure(root: str, name: str, seed: int, seconds: float) -> tuple[dict, Op, list[float]]:
    """Closed loop of cold operations for ``seconds``; medians per metric."""
    start = time.perf_counter()
    setup = setup_children(root, SETUP_PROBES)
    ops: list[Op] = []
    while True:
        ops.append(workload_op(root, name, seed, len(ops)))
        longest = max(o.raw_wall_s for o in ops)
        if time.perf_counter() - start + longest > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(o.wall_s for o in ops), "s", len(ops)),
        "setup_s": (statistics.median(c.ref_s for c in setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(o.rss_mb for o in ops), "MB", len(ops)),
    }
    raw = {
        "raw_wall_s": (statistics.median(o.raw_wall_s for o in ops), "s", len(ops)),
        "raw_setup_s": (statistics.median(c.wall_s for c in setup), "s", len(setup)),
    }
    return metrics, raw, Op.total(ops)


def measure_traced(root: str, name: str, seed: int) -> tuple[dict, Op]:
    """One untraced and one traced pass over the same inputs."""
    setup_children(root, 0)
    plain = workload_op(root, name, seed, 0)
    traced = workload_op(root, name, seed, 0, traced=True)
    lay = traced.layers
    metrics = {}
    for key in ("scalars.ops_numeric", "scalars.ops_symbolic", "algebra.calls",
                "enveloping.smash_products", "enveloping.terms_out",
                "modules.gen_action_calls", "modules.act_calls", "analysis.suite_calls",
                "cli.report_bytes"):
        metrics[key] = (lay.get(key, 0), "count" if key != "cli.report_bytes" else "B")
    self_sum = 0.0
    for layer in ("scalars", "algebra", "enveloping", "modules", "analysis", "cli"):
        metrics[f"{layer}.self_s"] = (lay.get(f"{layer}.self_s", 0.0), "s")
        self_sum += lay.get(f"{layer}.self_s", 0.0)
    for layer, label in (("enveloping", "pbw_cache"), ("modules", "action_cache")):
        hits = lay.get(f"{layer}.{label}_hits", 0)
        lookups = hits + lay.get(f"{layer}.{label}_misses", 0)
        metrics[f"{layer}.{label}_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics[f"{layer}.{label}_entries"] = (lay.get(f"{layer}.{label}_entries", 0), "count")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.outside_s"] = (traced.wall_s - self_sum, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return metrics, Op.total([plain, traced])


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def report_workload(root: str, name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload, print its human-readable lines, return the result."""
    print("env " + json.dumps(environment(root, name, seed, seconds, traced), sort_keys=True))
    if traced:
        metrics, total = measure_traced(root, name, seed)
        for key, (value, unit) in metrics.items():
            print(f"{name} {key} {value:.6g} {unit}")
        if total.missing:
            print(f"{name} trace: entry points not found: {', '.join(total.missing)}")
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics, raw, total = measure(root, name, seed, seconds)
        for key, (value, unit, n) in {**metrics, **raw}.items():
            print(f"{name} {key} {value:.6g} {unit} (median of {n})")
        if total.latencies_s:
            lat = total.latencies_s
            print(f"{name} verdict_p50_ms {1000 * statistics.median(lat):.6g} ms (n={len(lat)})")
            if len(lat) >= 200:
                print(f"{name} verdict_p95_ms {1000 * percentile(lat, 95):.6g} ms (n={len(lat)})")
        out = {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}
    rate = total.failed / total.attempted if total.attempted else 1.0
    print(f"{name} error_rate {rate:.6g} ({total.failed} failed of {total.attempted} attempted)")
    for problem in total.problems[:20]:
        print(f"{name} FAILED {problem}")
    return {"correct": total.failed == 0 and total.attempted > 0,
            "attempted": total.attempted, "failed": total.failed, "metrics": out}


def selftest(root: str) -> int:
    """Smoke-size pass of every workload, untraced and traced, with the
    known answers; then wrong answers on purpose, which must be counted."""
    ok = True
    for name in WORKLOADS:
        for traced in (False, True):
            op = workload_op(root, name, 0, 0, traced=traced, smoke=True)
            good = op.failed == 0 and op.attempted > 0
            if traced:
                good = good and not op.missing and op.layers.get("trace.spans", 0) > 0
            print(f"selftest {name} {'traced' if traced else 'untraced'}: "
                  f"{op.failed}/{op.attempted} failed, {op.wall_s:.2f} s "
                  f"{'ok' if good else 'WRONG ' + '; '.join(op.problems + op.missing)}")
            ok = ok and good
    wrong = cli_op(root, wl.SMOKE_COMMANDS["structure"], False, sabotage=True)
    print(f"selftest flipped digest: {wrong.failed}/{wrong.attempted} failed "
          f"({'ok' if wrong.failed else 'WRONG: not detected'})")
    tasks = wl.sabotage_grid(wl.grid_tasks(0, 0, wl.GRID_SMOKE_POINTS, wl.GRID_SMOKE_B_VALUES))
    wrong_grid = grid_op(root, tasks, False)
    print(f"selftest 'simple' expected on the locus: {wrong_grid.failed}/{wrong_grid.attempted} "
          f"failed ({'ok' if wrong_grid.failed else 'WRONG: not detected'})")
    ok = ok and wrong.failed > 0 and wrong_grid.failed > 0
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-size pass of every workload plus wrong answers on purpose")
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "nscheck", "cli.py")):
        sys.stderr.write(f"perfbench: no nscheck sources under {root}/src\n")
        return 2
    if args.selftest:
        return selftest(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: report_workload(root, n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
