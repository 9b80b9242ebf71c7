"""Fail-path witnesses: every suite's search order and witness rendering.

Each test forces a failure (a corrupted structure constant, a corrupted
primed element, a companion sum of too low an order, or a chain order
below the minimal annihilator) and pins the exact ``params`` and
``residual_witness`` strings, so a reordered search or a changed
rendering shows up as a test failure.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

import nscheck.algebra as algebra
import nscheck.analysis as analysis
import nscheck.enveloping as enveloping
import nscheck.modules as modules
from nscheck.algebra import AlgebraMode, C, L
from nscheck.analysis import (
    action_rep_reports,
    centralizer_reports,
    chain_reports,
    compat_reports,
    jacobi_family_reports,
    minimal_annihilator,
    module_edges,
    verify_jacobi,
)
from nscheck.cli import run
from nscheck.enveloping import SmashElement
from nscheck.modules import Window, gamma, gamma_plus
from nscheck.scalars import B, LAMBDA

F = Fraction


def failures(reports):
    return [(r.name, r.params, r.residual_witness) for r in reports if r.status == "fail"]


@pytest.fixture
def corrupt_l1_l2(monkeypatch, fresh_tables):
    """Double the structure constant of [L(1), L(2)], from empty caches."""
    original = algebra.bracket_basis

    def corrupted(x, y, with_center):
        out = original(x, y, with_center)
        if (x, y) == (L(1), L(2)):
            out = [(g, 2 * c) for g, c in out]
        return out

    monkeypatch.setattr(algebra, "bracket_basis", corrupted)


def test_jacobi_witness(corrupt_l1_l2):
    want = ("range=2 at (L(-2),L(1),L(2))", "5*L(1)")
    assert failures(jacobi_family_reports(2)) == [
        ("jacobi/LLL/range=2", *want),
        ("jacobi/LLG/range=2", "range=2 at (L(1),L(2),G(-3/2))", "3*G(3/2)"),
        ("jacobi/LGG/range=2", "range=2 at (L(1),G(1/2),G(3/2))", "-2*L(3)"),
    ]
    assert failures([verify_jacobi(2)]) == [("jacobi/all/range=2", *want)]


@pytest.fixture
def doubled_central_l2(monkeypatch, fresh_tables):
    """Double only the central term of [L(2), L(-2)], from empty caches."""
    original = algebra.bracket_basis

    def corrupted(x, y, with_center):
        out = original(x, y, with_center)
        if (x, y) == (L(2), L(-2)):
            out = tuple((g, 2 * c if g == C else c) for g, c in out)
        return out

    monkeypatch.setattr(algebra, "bracket_basis", corrupted)


def test_jacobi_central_witness(doubled_central_l2):
    # a witness with a central term: the suites sweep C/3, the witness shows C
    want = ("range=2 at (L(-2),L(2),L(0))", "-C")
    assert failures(jacobi_family_reports(2)) == [
        ("jacobi/LLL/range=2", *want),
        ("jacobi/LGG/range=2", "range=2 at (L(2),G(-3/2),G(-1/2))", "-C"),
    ]
    assert failures([verify_jacobi(2)]) == [("jacobi/all/range=2", *want)]


def test_compat_witness(corrupt_l1_l2):
    assert failures(compat_reports(2)) == [
        ("compat/(L,t,L)", "range=2 at (L(1),t^-2,L(2))", "-1 (x) L(1)"),
        ("compat/(L,t*xi,L)", "range=2 at (L(1),t^-2*xi,L(2))", "-1/2*1 (x) G(3/2)"),
    ]


def test_action_rep_witness(corrupt_l1_l2):
    assert failures(action_rep_reports(2)) == [
        ("action-rep/(L,L)", "range=2 at (L(1),L(2),t^-2)", "2*t"),
    ]


# each structural suite with the element types its witness is built from;
# the compatibility witness is the Lie residual embedded in the smash algebra
WITNESS_TYPES = {
    jacobi_family_reports: ("LieElement",),
    compat_reports: ("LieElement", "SmashElement"),
    action_rep_reports: ("AElement",),
}


@pytest.fixture
def built(monkeypatch):
    """The Combination constructions, counted by type, while it is live."""
    counts = Counter()
    original = algebra.Combination.__init__

    def counted(self, *args, **kwargs):
        counts[type(self).__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(algebra.Combination, "__init__", counted)
    return counts


@pytest.mark.parametrize("mutated", [False, True], ids=["control", "l1-l2-mutant"])
def test_structural_suites_build_only_their_witness(request, built, mutated):
    """The structural suites test plain residual tables: a passing suite
    builds no element, and a failing report builds its witness alone."""
    if mutated:
        request.getfixturevalue("corrupt_l1_l2")
    for suite, types in WITNESS_TYPES.items():
        built.clear()
        failing = len(failures(suite(3)))
        assert (failing > 0) == mutated, suite.__name__
        assert built == Counter({t: failing for t in types}), suite.__name__


def test_centralizer_witness(monkeypatch):
    original = enveloping.l_prime
    for namespace in (enveloping, analysis):
        monkeypatch.setattr(
            namespace, "l_prime",
            lambda n, mode=AlgebraMode.K: original(n, mode) + SmashElement.gen(L(n), mode),
        )
    assert sorted(failures(centralizer_reports(2, 2))) == [
        ("centralizer/L'(0)/A", "n=0; |k|<=2 at t^-2", "-2*t^-2 (x) 1"),
        ("centralizer/L'(0)/G(-1/2)", "n=0", "1/2*1 (x) G(-1/2)"),
        ("centralizer/L'(1)/A", "n=1; |k|<=2 at t^-2", "-2*t^-1 (x) 1"),
        ("centralizer/L'(1)/G(-1/2)", "n=1", "1 (x) G(1/2)"),
        ("centralizer/L'(2)/A", "n=2; |k|<=2 at t^-2", "-2*1 (x) 1"),
        ("centralizer/L'(2)/G(-1/2)", "n=2", "3/2*1 (x) G(3/2)"),
    ]


MINIMALITY = {
    "gamma(1/3,1/4)": "minimality: Omega^(2)_{-1,-1} t^-6 = 3/8 * t^-8",
    "gamma+(0,1/4)": "minimality: Omega^(2)_{1,-1} t^0 = 3/8 * t^0",
}


@pytest.mark.parametrize("mod", [gamma(F(1, 3), F(1, 4)), gamma_plus(F(1, 4))],
                         ids=["khat", "kplus"])
def test_annihilator_minimality_witness(mod):
    m, report = minimal_annihilator(mod, Window(-6, 6, 0), 6, sweep=1)
    assert m == 3 and report.status == "pass"
    assert report.params == (f"module={mod.descriptor()}; window=-6..6(margin 0); "
                             f"sweep=1; m=3; {MINIMALITY[mod.descriptor()]}")


@pytest.mark.parametrize("mod, witness", [
    (gamma(F(1, 3), F(1, 4)), "G-L sum m=3, k=-1/2, p=-1 on t^-6: 1/4 * t^-8 xi"),
    (gamma_plus(F(1, 4)), "G-L sum m=3, k=5/2, p=-1 on t^0: 1/4 * t^1 xi"),
], ids=["khat", "kplus"])
def test_annihilator_companion_witness(monkeypatch, mod, witness):
    original = analysis.gl_sum
    monkeypatch.setattr(analysis, "gl_sum",
                        lambda q, p, m, mode=AlgebraMode.KHAT: original(q, p, m - 1, mode))
    _, report = minimal_annihilator(mod, Window(-6, 6, 0), 6, sweep=1)
    assert report.status == "fail"
    assert report.params == (f"module={mod.descriptor()}; window=-6..6(margin 0); "
                             f"sweep=1; m=3; {MINIMALITY[mod.descriptor()]}")
    assert report.residual_witness == witness


def test_chain_witnesses_formal():
    got = failures(chain_reports(gamma(LAMBDA, B), -2, Window(-4, 4, 0), 1))
    head = "module=gamma(l,b); order="
    assert got == [
        ("chain/t-L", f"{head}0; sweep=1 at a=-1, s=-1, t^-4", "(l - 4) * t^-6"),
        ("chain/t-G", f"{head}1; sweep=1 at a=-1, p=-1/2, t^-4", "-2*b * t^-6 xi"),
        ("chain/G-L", f"{head}0; sweep=1 at q=-1/2, p=-1, t^-4",
         "(l^2 - 9*l + 20) * t^-6 xi"),
    ]
    got = failures(chain_reports(gamma(LAMBDA, B), 0, Window(-4, 4, 0), 1))
    assert got == [("chain/G-L", f"{head}2; sweep=1 at q=-1/2, p=-1, t^-4",
                    "(-4*b^2 + 2*b) * t^-6 xi")]


def test_chain_witnesses_kplus():
    got = failures(chain_reports(gamma_plus(F(1, 4)), -2, Window(-6, 6, 0), 1))
    head = "module=gamma+(0,1/4); order="
    assert got == [
        ("chain/t-L", f"{head}0; sweep=1 at a=0, s=-1, t^1", "1 * t^0"),
        ("chain/t-G", f"{head}1; sweep=1 at a=1, p=1/2, t^0", "-1/2 * t^1 xi"),
        ("chain/G-L", f"{head}0; sweep=1 at q=1/2, p=-1, t^1", "1/2 * t^0 xi"),
    ]
    got = failures(chain_reports(gamma_plus(F(1, 4)), -1, Window(-6, 6, 0), 1))
    assert got == [
        ("chain/t-L", f"{head}1; sweep=1 at a=1, s=-1, t^0", "-1/4 * t^0"),
        ("chain/G-L", f"{head}1; sweep=1 at q=3/2, p=-1, t^0", "-1/8 * t^0 xi"),
    ]


def test_module_axiom_command_witnesses(tmp_path):
    path = tmp_path / "axiom.json"
    code = run(["module-axiom", "--module", "gamma(l,b)", "--convention", "paper-printed",
                "--gen-range", "1", "--window", "-4..4", "--format", "json", "--out", str(path)])
    assert code == 1
    checks = json.loads(path.read_text())["checks"]
    got = [(c["name"], c["params"], c["witness"]) for c in checks if c["status"] == "fail"]
    where = "module=gamma(l,b); window=-4..4(margin 0) at t^-4"
    assert got == [
        ("module-axiom/paper-printed/(G(-1/2),G(-1/2))", where, "(4*l - 16) * t^-5"),
        ("module-axiom/paper-printed/(G(-1/2),G(1/2))", where, "(4*l + 4*b - 16) * t^-4"),
        ("module-axiom/paper-printed/(G(1/2),G(1/2))", where, "(4*l + 8*b - 16) * t^-3"),
    ]


def mu_shifted(g, m, lam, b):
    # mutant of algebra.jet_coefficient: (n+1) -> n in mu
    if g.parity and m.eps:
        return 0
    return lam + b * ((g.index.doubled // 2) * (1 + g.parity))


def module_axiom_failures(tmp_path) -> list[str]:
    path = tmp_path / "axiom.json"
    run(["module-axiom", "--module", "gamma(l,b)", "--gen-range", "1", "--window", "-2..2",
         "--format", "json", "--out", str(path)])
    return [c["name"] for c in json.loads(path.read_text())["checks"] if c["status"] == "fail"]


@pytest.mark.parametrize("mutated", [False, True], ids=["control", "mu-mutant"])
def test_shared_jet_term_mutant(monkeypatch, fresh_tables, tmp_path, mutated):
    """The bracket and the module action read one jet coefficient, so one
    mutant of it fails both the Jacobi suite and the gamma(l,b) module axiom."""
    if mutated:
        for namespace in (algebra, modules):
            monkeypatch.setattr(namespace, "jet_coefficient", mu_shifted)
    jacobi = verify_jacobi(2)
    assert (jacobi.status, jacobi.residual_witness) == (
        ("fail", "-3*L(-6)") if mutated else ("pass", None))
    assert len(module_axiom_failures(tmp_path)) == (15 if mutated else 0)


def test_jet_term_mutant_reaches_numeric_handles(monkeypatch, fresh_tables):
    """A numeric handle computes its coefficients in Q from the same jet
    coefficient, so the mu mutant changes its edge table too."""
    def edges():
        return module_edges(gamma(F(1, 3), F(1, 4)), Window(-10, 10, 3), 2)

    control = edges()
    for namespace in (algebra, modules):
        monkeypatch.setattr(namespace, "jet_coefficient", mu_shifted)
    assert edges() != control


def sign_blind(rho, x, y, xy, v, odd, _law=algebra.rep_residual):
    # mutant of algebra.rep_residual: the sign rule ignores odd
    return _law(rho, x, y, xy, v, False)


SIGN_BLIND_FAILURES = [
    "jacobi/LGG/range=2",
    "jacobi/GGG/range=2",
    "compat/(G,t*xi,G)",
    "action-rep/(G,G)",
    "module-axiom/corrected/(G(-1/2),G(-1/2))",
    "module-axiom/corrected/(G(-1/2),G(1/2))",
    "module-axiom/corrected/(G(1/2),G(1/2))",
]


@pytest.mark.parametrize("mutated", [False, True], ids=["control", "sign-mutant"])
def test_shared_representation_law_mutant(monkeypatch, tmp_path, mutated):
    """Jacobi, compatibility, the derivation action and the module axiom
    check one representation law, so one sign mutant of it fails all four
    suites, each exactly on its odd-odd checks."""
    if mutated:
        for namespace in (algebra, analysis, modules):
            monkeypatch.setattr(namespace, "rep_residual", sign_blind)
    reports = jacobi_family_reports(2) + compat_reports(2) + action_rep_reports(2)
    got = [r.name for r in reports if r.status == "fail"] + module_axiom_failures(tmp_path)
    assert got == (SIGN_BLIND_FAILURES if mutated else [])
