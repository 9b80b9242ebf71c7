"""Workload inputs and their known answers.

The CLI workloads are fixed invocations; their answers are the exit code,
the status of every check and the sha256 of the report bytes, recorded
from the code the benchmark was written against (golden reports must stay
byte-identical).  The grid workload draws (lambda, b) points from the
seed; its answers come from the classification law below, which is stated
independently of the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

CLI_COMMANDS = {
    "structure": [["verify", "--suite", "all", "--range", "4", "--format", "json"]],
    "catalogue": [["identities", "--max-n", "5", "--format", "json"]],
    "formal": [
        ["annihilator", "--module", "gamma(l,b)", "--window=-8..8", "--format", "json"],
        ["module-axiom", "--module", "gamma(l,b)", "--convention", "paper-printed",
         "--format", "json"],
    ],
}

# smoke-size variants for the harness self-test
SMOKE_COMMANDS = {
    "structure": [["verify", "--suite", "all", "--range", "2", "--format", "json"]],
    "catalogue": [["identities", "--max-n", "2", "--window=-4..4", "--format", "json"]],
    "formal": [
        ["annihilator", "--module", "gamma(l,b)", "--window=-6..6", "--format", "json"],
        ["module-axiom", "--module", "gamma(l,b)", "--convention", "paper-printed",
         "--gen-range", "1", "--window=-4..4", "--format", "json"],
    ],
}

# (exit code, sha256 of the report bytes) per invocation
GOLDEN = {
    "verify --suite all --range 4 --format json":
        (0, "b93e02a4c1bf8184c7bd53f9fa175ac34bca882a50634f90a9ac3bf93370e4d1"),
    "identities --max-n 5 --format json":
        (0, "3a5549836c33b06fb38077cdd65128bfc11ad4d39c87ec50660c9ff91694d833"),
    "annihilator --module gamma(l,b) --window=-8..8 --format json":
        (0, "8f316333cfb6c3a48bc86ca212883bc194ca1811b36b8e8d7bdc722c82349a65"),
    "module-axiom --module gamma(l,b) --convention paper-printed --format json":
        (1, "3e0f8bda94b62fe704ee2f16e56c56db67aee559a17e6cc5bd9d2ce021fc6c63"),
    "verify --suite all --range 2 --format json":
        (0, "19cd593d1a5cf0ce25d7b100a1f76686af88e5d78c0b3e247662056a19117981"),
    "identities --max-n 2 --window=-4..4 --format json":
        (0, "dbed716df39664af76dc62095e7e214b957889413b1a05b9b1e8d3e4887ab53c"),
    "annihilator --module gamma(l,b) --window=-6..6 --format json":
        (0, "dda61e66083e3186aaeca3c6fab57659b901a093a8fd1fa011d48ab52e55975a"),
    "module-axiom --module gamma(l,b) --convention paper-printed --gen-range 1 --window=-4..4 --format json":
        (1, "179facdc702e0ae4b2975deaf611fe34fd749b4e9a992813ceb9ff4877839a3d"),
}

GRID_WINDOW = (-10, 10, 3)  # keys -10..10, verdicts on the margin-3 interior
GRID_GEN_RANGE = 3
GRID_POINTS = 60
GRID_B_VALUES = 12
GRID_SMOKE_POINTS = 4
GRID_SMOKE_B_VALUES = 2

# rationals of height <= 5 in [-2, 2]: the pool for lambda and b
SMALL = sorted({Fraction(p, q) for q in range(1, 6) for p in range(-2 * q, 2 * q + 1)})
HALF = Fraction(1, 2)
# reducibility locus: integral lambda, b in {0, 1/2}
LOCUS = [(Fraction(lam), b) for lam in range(-5, 6) for b in (Fraction(0), HALF)]

# the five pairs of acceptance criterion 7 and whether an intertwiner exists
ISO_PAIRS = [
    ("gamma(1/3,1/4)", "gamma(4/3,1/4)", "found"),
    ("gamma(1/3,1/2)", "gamma(4/3,0)", "found"),
    ("gamma'(0,0)", "pi(gamma'(0,1/2))", "found"),
    ("gamma(1/3,0)", "gamma(1/3,1/4)", "absent"),
    ("gamma(1/3,1/4)", "gamma(1/2,1/4)", "absent"),
]


def simplicity_law(family: str, lam: Fraction, b: Fraction, algebra: str) -> str:
    """Classification of the intermediate-series modules.

    gamma(l, b) over khat is reducible exactly on the locus (l integral,
    b in {0, 1/2}); over the contact subalgebra kplus it is reducible
    exactly when l is integral; gamma+(0, b) and gamma-(0, b) are simple.
    """
    if family in ("gamma+", "gamma-"):
        return "simple"
    if algebra == "kplus":
        return "reducible" if lam.denominator == 1 else "simple"
    return "reducible" if lam.denominator == 1 and b in (0, HALF) else "simple"


def grid_tasks(seed: int, sweep: int, points: int = GRID_POINTS,
               b_values: int = GRID_B_VALUES) -> list[tuple[list[str], str]]:
    """Verdict tasks of one sweep with their expected answers.

    A quarter of the points lie on the reducibility locus; the rest are
    distinct off-locus points whose b cycles through ``b_values`` drawn
    values, so every sweep does the same number of verdicts.
    """
    rng = random.Random(f"nscheck-grid/{seed}/{sweep}")
    n_locus = points // 4
    others = [v for v in SMALL if v not in (0, HALF)]
    bs = [Fraction(0), HALF] + rng.sample(others, b_values - 2)
    pts = rng.sample(LOCUS, n_locus)
    taken = set(pts)
    while len(pts) < points:
        pt = (rng.choice(SMALL), bs[len(pts) % b_values])
        if pt not in taken and pt not in LOCUS:
            taken.add(pt)
            pts.append(pt)
    rng.shuffle(pts)
    tasks = []
    for lam, b in pts:
        for algebra in ("khat", "kplus"):
            tasks.append((["simplicity", f"gamma({lam},{b})", algebra],
                          simplicity_law("gamma", lam, b, algebra)))
    for b in bs:
        for family in ("gamma+", "gamma-"):
            tasks.append((["simplicity", f"{family}(0,{b})"],
                          simplicity_law(family, Fraction(0), b, "kplus")))
    for m1, m2, answer in ISO_PAIRS:
        tasks.append((["iso", m1, m2], answer))
    return tasks


def sabotage_grid(tasks: list[tuple[list[str], str]]) -> list[tuple[list[str], str]]:
    """Expect 'simple' at the first locus point: a wrong answer on purpose."""
    out = list(tasks)
    for i, (task, answer) in enumerate(out):
        if task[-1] == "khat" and answer == "reducible":
            out[i] = (task, "simple")
            return out
    raise ValueError("no locus point to sabotage")


def check_grid(tasks: list[tuple[list[str], str]], results: list[list]) -> list[str]:
    """Problems with one sweep's answers; a missing answer is a problem."""
    problems = []
    for i, (task, want) in enumerate(tasks):
        if i >= len(results):
            problems.append(f"{' '.join(task)}: no answer")
        elif results[i][0] != " ".join(task) or results[i][1] != want:
            problems.append(f"{' '.join(task)}: got {results[i][1]}, expected {want}")
    return problems


def expected_failures(argv: list[str], names: list[str]) -> set[str]:
    """Checks that must fail: the odd-odd pairs of the printed convention."""
    if argv[0] == "module-axiom" and "paper-printed" in argv:
        return {n for n in names if n.split("/", 2)[-1].count("G(") == 2}
    return set()


def check_cli(argv: list[str], code: int, report: bytes, sabotage: bool = False) -> list[str]:
    """Problems with one CLI invocation's exit code, statuses and bytes."""
    want_code, want_digest = GOLDEN.get(" ".join(argv), (None, None))
    if want_digest is None:
        return [f"no golden record for {' '.join(argv)}"]
    if sabotage:
        want_digest = ("0" if want_digest[0] != "0" else "1") + want_digest[1:]
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    try:
        checks = json.loads(report)["checks"]
        statuses = {c["name"]: c["status"] for c in checks}
    except (ValueError, KeyError, TypeError):
        return problems + [f"unreadable report: {report[:200]!r}"]
    if not statuses:
        problems.append("report has no checks")
    must_fail = expected_failures(argv, list(statuses))
    for name, status in sorted(statuses.items()):
        want = "fail" if name in must_fail else "pass"
        if status != want:
            problems.append(f"{name}: {status}, expected {want}")
    digest = hashlib.sha256(report).hexdigest()
    if digest != want_digest:
        problems.append(f"report sha256 {digest[:16]}..., expected {want_digest[:16]}...")
    return problems
