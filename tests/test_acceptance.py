"""Acceptance criteria, exercised end to end with exact arithmetic.

Each test prints one PASS/FAIL line (visible under ``pytest -v -s`` or in
the captured output summary).  All comparisons are exact: the tolerance
everywhere is literal zero.
"""

import json
import time
from fractions import Fraction
from itertools import product

from nscheck.algebra import AlgebraMode, G, basis, half
from nscheck.analysis import (
    centralizer_reports,
    chain_reports,
    find_intertwiner,
    minimal_annihilator,
    psi_table_reports,
    reconstruction_reports,
    simplicity_verdict,
    verify_jacobi,
)
from nscheck.cli import run
from nscheck.enveloping import omega, verify_reconstruction
from nscheck.modules import (
    BasisKey,
    ModuleVector,
    SignConvention,
    Window,
    act,
    gamma,
    gamma_minus,
    gamma_plus,
    gamma_prime,
    module_axiom_residual,
    parity_change,
)
from nscheck.scalars import B, LAMBDA

F = Fraction
GRID_WINDOW = Window(-10, 10, 3)


def report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_1_jacobi_with_cocycle():
    t0 = time.monotonic()
    result = verify_jacobi(4)
    elapsed = time.monotonic() - t0
    report(1, f"graded Jacobi + cocycle, indices in [-4,4], {elapsed:.1f}s",
           result.status == "pass" and elapsed < 10.0)


def test_criterion_2_reconstruction_identities(flipped_extension):
    clean = reconstruction_reports(8)
    ok = all(r.status == "pass" for r in clean)
    flipped_extension()
    _, res_g = verify_reconstruction(0)
    ok = ok and not res_g.is_zero()
    report(2, "reconstruction identities n=0..8; mutated extension fails at n=0", ok)


def test_criterion_3_centralizer_suite():
    reports = centralizer_reports(8, 6)
    report(3, "centralizer brackets with t^k, t^k xi (|k|<=6) and G(-1/2), n<=8",
           all(r.status == "pass" for r in reports))


def test_criterion_4_psi_bracket_table():
    reports = psi_table_reports(5)
    report(4, "primed bracket table up to index 5",
           all(r.status == "pass" for r in reports))


def test_criterion_5_module_axiom_symbolic():
    gens = [g for g in basis(3, AlgebraMode.K)]
    keys = [BasisKey(k, eps) for k in range(-8, 9) for eps in (0, 1)]
    corrected = gamma(LAMBDA, B, convention=SignConvention.CORRECTED)
    printed = gamma(LAMBDA, B, convention=SignConvention.PAPER_PRINTED)

    ok = True
    failing_printed_pairs = set()
    for i, x in enumerate(gens):
        for y in gens[i:]:
            for key in keys:
                if not module_axiom_residual(x, y, key, corrected).is_zero():
                    ok = False
                if not module_axiom_residual(x, y, key, printed).is_zero():
                    failing_printed_pairs.add((x, y))
                    break
    odd_odd = {(x, y) for i, x in enumerate(gens) for y in gens[i:]
               if x.parity and y.parity}
    ok = ok and failing_printed_pairs == odd_odd

    # the specific residual on (G_{1/2}, G_{-1/2}, t^k) is 4(l + k + b) t^k
    for k in range(-8, 9):
        got = module_axiom_residual(G(half(1)), G(half(-1)), BasisKey(k, 0), printed)
        want = ModuleVector({BasisKey(k, 0): (LAMBDA + k + B) * 4})
        ok = ok and got == want
    report(5, "module axiom: corrected convention exact; printed fails odd-odd only "
              "with residual 4(l+k+b)t^k", ok)


GRID_L = [F(-1), F(0), F(1, 3), F(1), F(7, 5)]
GRID_B = [F(-1), F(0), F(1, 4), F(1, 2), F(1)]


def test_criterion_6_reducibility_grid():
    t0 = time.monotonic()
    ok = True
    for lam, b in product(GRID_L, GRID_B):
        want_reducible = lam.denominator == 1 and b in (F(0), F(1, 2))
        v = simplicity_verdict(gamma(lam, b), GRID_WINDOW, 3)
        ok = ok and v.kind == ("reducible" if want_reducible else "simple")
        v = simplicity_verdict(gamma(lam, b, AlgebraMode.KPLUS), GRID_WINDOW, 3)
        want_simple = lam.denominator != 1
        ok = ok and v.kind == ("simple" if want_simple else "reducible")
    for b in GRID_B:
        ok = ok and simplicity_verdict(gamma_plus(b), GRID_WINDOW, 3).kind == "simple"
        ok = ok and simplicity_verdict(gamma_minus(b), GRID_WINDOW, 3).kind == "simple"
    elapsed = time.monotonic() - t0
    report(6, f"reducibility grid over 25 points, window -10..10, {elapsed:.1f}s",
           ok and elapsed < 30.0)


def test_criterion_7_isomorphism_suite():
    w = GRID_WINDOW
    found = [
        find_intertwiner(gamma(F(1, 3), F(1, 4)), gamma(F(4, 3), F(1, 4)), w, 3),
        find_intertwiner(gamma(F(1, 3), F(1, 2)), gamma(F(4, 3), F(0)), w, 3),
        find_intertwiner(gamma_prime(0, 0), parity_change(gamma_prime(0, F(1, 2))), w, 3),
    ]
    absent = [
        find_intertwiner(gamma(F(1, 3), F(0)), gamma(F(1, 3), F(1, 4)), w, 3),
        find_intertwiner(gamma(F(1, 3), F(1, 4)), gamma(F(1, 2), F(1, 4)), w, 3),
    ]
    report(7, "intertwiners found on the three isomorphic pairs, absent on the two others",
           all(f is not None for f in found) and all(a is None for a in absent))


def test_criterion_8_annihilators_and_chains():
    window = Window(-10, 10, 0)
    mod = gamma(F(1, 3), F(1, 4))
    m, ann = minimal_annihilator(mod, window, 6, sweep=2)
    ok = m <= 6 and ann.status == "pass" and "minimality: Omega^(2)" in ann.params

    # independent minimality witness at m - 1
    lower = omega(2, 2, m - 1)
    nonzero = any(
        not act(lower, ModuleVector.basis(BasisKey(k, 0)), mod).is_zero()
        for k in range(-3, 4)
    )
    ok = ok and nonzero

    chains = chain_reports(mod, m, window, sweep=2)
    ok = ok and all(r.status == "pass" for r in chains)
    report(8, f"minimal annihilator order m={m} with witness at m-1; "
              "odd companion sums and consequence chains vanish on the window", ok)


def test_criterion_9_cli_golden(tmp_path):
    args = ["verify", "--suite", "jacobi", "--range", "2", "--format", "json"]
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    c1 = run(args + ["--out", str(p1)])
    c2 = run(args + ["--out", str(p2)])
    ok = c1 == 0 and c2 == 0 and p1.read_bytes() == p2.read_bytes()

    doc = json.loads(p1.read_text())
    ok = ok and set(doc) == {"meta", "checks"} and doc["meta"]["tool"] == "nscheck"

    injected = run(["verify", "--suite", "jacobi", "--range", "2",
                    "--inject-failure", "--format", "json",
                    "--out", str(tmp_path / "g3.json")])
    printed = run(["module-axiom", "--module", "gamma(l,b)",
                   "--convention", "paper-printed", "--gen-range", "1",
                   "--window", "-4..4", "--format", "json",
                   "--out", str(tmp_path / "g4.json")])
    usage = run(["module-simplicity", "--module", "gamma(0,1/2"])
    unknown = run(["frobnicate"])
    ok = ok and injected == 1 and printed == 1 and usage == 2 and unknown == 2
    report(9, "CLI: byte-identical JSON, exit codes 0/1/2 with injected failure", ok)
