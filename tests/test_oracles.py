"""Independent oracles.

The PBW normal-form engine against the module engine: ``smash_product``
rewrites products into normal form with no reference to any module, and
``act`` evaluates an element on a module window with no reference to normal
forms.  Acting by a product must equal acting by its factors in turn, so
each engine checks the other.

The structural suites' representation law against the element-level
products: see the second half of this file.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

import nscheck.algebra as algebra
from nscheck.algebra import (
    A_action_on_k,
    AElement,
    AlgebraMode,
    AMonomial,
    C,
    G,
    L,
    LieElement,
    basis,
    bracket,
    compatibility_residual,
    half,
    k_action_on_A,
)
from nscheck.analysis import action_rep_reports, jacobi_residual
from nscheck.enveloping import SmashElement, smash_product
from nscheck.modules import (
    BasisKey,
    ModuleVector,
    SignConvention,
    act,
    gamma,
    gamma_plus,
    module_axiom_residual,
)
from nscheck.scalars import B, LAMBDA, Scalar

KHAT, K = AlgebraMode.KHAT, AlgebraMode.K

PAIRS = 150

GENS = [L(n) for n in range(-2, 3)] + [G(half(d)) for d in (-3, -1, 1, 3)]

# smash algebra (test id and seed) -> (module, whose algebra mode names the
# smash algebra, admissible generators, A-exponent range or None for a unit
# A-part, key range)
SETUPS = {
    "U": (gamma(LAMBDA, B), GENS + [C], None, range(-3, 4)),
    "A-k": (gamma(LAMBDA, B, AlgebraMode.K), GENS, range(-2, 3), range(-3, 4)),
    "A+-k+": (gamma_plus(B), [g for g in GENS if g.index.doubled >= -2],
              range(0, 3), range(0, 4)),
}


def random_element(rng, mode, gens, a_range):
    out = SmashElement.zero(mode)
    for _ in range(rng.randint(1, 3)):
        picked = sorted(rng.sample(gens, rng.randint(0, 2)), key=lambda g: g.sort_key())
        a = AMonomial(0, 0) if a_range is None else AMonomial(rng.choice(a_range), rng.randint(0, 1))
        out = out + SmashElement({(a, tuple(picked)): rng.choice([-3, -2, -1, 1, 2, 3])}, mode)
    return out


def random_vector(rng, keys):
    return ModuleVector({BasisKey(rng.choice(keys), rng.randint(0, 1)): Scalar.of(rng.randint(1, 3))
                         for _ in range(rng.randint(1, 2))})


@pytest.mark.parametrize("label", list(SETUPS))
def test_product_acts_as_composition(label):
    mod, gens, a_range, keys = SETUPS[label]
    mode = mod.algebra_mode
    rng = random.Random(f"cross-engine/{label}")
    for _ in range(PAIRS):
        x = random_element(rng, mode, gens, a_range)
        y = random_element(rng, mode, gens, a_range)
        v = random_vector(rng, list(keys))
        assert act(smash_product(x, y), v, mod) == act(x, act(y, v, mod), mod), (
            x.render(), y.render(), v.render())


# ---------------------------------------------------------------------------
# The representation law against the element-level products
# ---------------------------------------------------------------------------
#
# The structural suites check rho(x) rho(y) v - (-1)^{|x||y|} rho(y) rho(x) v
# = rho([x, y]) v on basis keys.  Here the law is written out once more on
# multi-term elements from the bilinear products (`bracket`, `k_action_on_A`,
# `A_action_on_k`, `act`), and each suite's residual, extended multilinearly,
# must equal it: on the real tables, where both vanish, and on a corrupted
# bracket table or the paper-printed module signs, where they do not.

LAW_RANGE = 2
LAW_SAMPLES = 30
LAW_COEFFS = {
    "numeric": (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)),
    "formal": (LAMBDA, B, LAMBDA + 1, 2 * B - 1, LAMBDA * B),
}


def law(rho, x, y, xy, v):
    """rho(x) rho(y) v - (-1)^{|x||y|} rho(y) rho(x) v - rho(xy) v on elements."""
    first, swap = rho(x, rho(y, v)), rho(y, rho(x, v))
    return (first + swap if x.parity() and y.parity() else first - swap) - rho(xy, v)


def homogeneous(rng, keys, coeffs) -> dict:
    """Two or three keys of one parity with coefficients drawn from ``coeffs``."""
    parity = rng.randint(0, 1)
    picked = rng.sample([k for k in keys if k.parity == parity], rng.randint(2, 3))
    return {k: Scalar.of(rng.choice(coeffs)) for k in picked}


def multilinear(residual, zero, *tables):
    """sum c_1 ... c_r residual(k_1, ..., k_r) over the terms of ``tables``."""
    out = zero
    for terms in product(*(t.items() for t in tables)):
        c = Scalar.of(1)
        for _, ck in terms:
            c = c * ck
        out = out + residual(*(k for k, _ in terms)).scale(c)
    return out


@pytest.fixture
def corrupt_bracket(monkeypatch, fresh_tables):
    """Double every structure constant [L(1), y] and [G(1/2), y], from empty
    caches."""
    original = algebra.bracket_basis

    def corrupted(x, y, with_center):
        out = original(x, y, with_center)
        return tuple((g, 2 * c) for g, c in out) if x in (L(1), G(half(1))) else out

    monkeypatch.setattr(algebra, "bracket_basis", corrupted)


TABLES = ["tables", "corrupted"]


@pytest.mark.parametrize("coeffs", list(LAW_COEFFS))
@pytest.mark.parametrize("tables", TABLES)
def test_jacobi_law_matches_bracket(request, coeffs, tables):
    if tables == "corrupted":
        request.getfixturevalue("corrupt_bracket")
    rng = random.Random(f"table-law/jacobi/{coeffs}/{tables}")
    gens, hits = basis(LAW_RANGE), 0
    for _ in range(LAW_SAMPLES):
        x, y, z = (homogeneous(rng, gens, LAW_COEFFS[coeffs]) for _ in range(3))
        ex, ey, ez = (LieElement(t, KHAT) for t in (x, y, z))
        want = law(bracket, ex, ey, bracket(ex, ey), ez)
        assert multilinear(jacobi_residual, LieElement.zero(KHAT), x, y, z) == want, (
            ex.render(), ey.render(), ez.render())
        hits += not want.is_zero()
    assert (hits > 0) == (tables == "corrupted")


@pytest.mark.parametrize("coeffs", list(LAW_COEFFS))
@pytest.mark.parametrize("tables", TABLES)
def test_compatibility_law_matches_actions(request, coeffs, tables):
    if tables == "corrupted":
        request.getfixturevalue("corrupt_bracket")
    rng = random.Random(f"table-law/compat/{coeffs}/{tables}")
    gens = basis(LAW_RANGE, K)
    amons = [AMonomial(i, eps) for i in range(-LAW_RANGE, LAW_RANGE + 1) for eps in (0, 1)]

    def rho(e, w):
        return bracket(e, w) if isinstance(e, LieElement) else A_action_on_k(e, w)

    hits = 0
    for _ in range(LAW_SAMPLES):
        v, x = (LieElement(homogeneous(rng, gens, LAW_COEFFS[coeffs]), K) for _ in range(2))
        a = AElement(homogeneous(rng, amons, LAW_COEFFS[coeffs]))
        want = law(rho, v, a, k_action_on_A(v, a), x)
        assert compatibility_residual(v, a, x) == want, (v.render(), a.render(), x.render())
        hits += not want.is_zero()
    assert (hits > 0) == (tables == "corrupted")


@pytest.mark.parametrize("tables", TABLES)
def test_action_rep_law_matches_k_action(request, tables):
    # the suite sweeps basis keys only: its failures must be the first
    # nonzero element-level residuals, in its sweep order
    if tables == "corrupted":
        request.getfixturevalue("corrupt_bracket")
    gens = basis(LAW_RANGE, K)
    amons = [AElement.monomial(i, eps) for i in range(-LAW_RANGE, LAW_RANGE + 1) for eps in (0, 1)]
    want = []
    for xkind, ykind in (("L", "L"), ("L", "G"), ("G", "L"), ("G", "G")):
        for x, y, a in product([g for g in gens if g.kind == xkind],
                               [g for g in gens if g.kind == ykind], amons):
            ex, ey = LieElement.basis(x, K), LieElement.basis(y, K)
            r = law(k_action_on_A, ex, ey, bracket(ex, ey), a)
            if not r.is_zero():
                want.append((f"action-rep/({xkind},{ykind})",
                             f"range={LAW_RANGE} at ({x.render()},{y.render()},{a.render()})",
                             r.render()))
                break
    got = [(r.name, r.params, r.residual_witness)
           for r in action_rep_reports(LAW_RANGE) if r.status == "fail"]
    assert got == want
    assert bool(want) == (tables == "corrupted")


@pytest.mark.parametrize("coeffs", list(LAW_COEFFS))
@pytest.mark.parametrize("convention", list(SignConvention), ids=lambda c: c.value)
def test_module_axiom_law_matches_act(coeffs, convention):
    lam, b = (Fraction(1, 3), Fraction(1, 4)) if coeffs == "numeric" else (LAMBDA, B)
    mod = gamma(lam, b, convention=convention)
    rng = random.Random(f"table-law/module/{coeffs}/{convention.value}")
    gens = [g for g in basis(LAW_RANGE) if g.kind != "C"]
    keys = [BasisKey(k, eps) for k in range(-3, 4) for eps in (0, 1)]
    hits = 0
    for _ in range(LAW_SAMPLES):
        x, y = (homogeneous(rng, gens, LAW_COEFFS[coeffs]) for _ in range(2))
        v = {key: Scalar.of(rng.choice(LAW_COEFFS[coeffs])) for key in rng.sample(keys, 2)}
        ex, ey = LieElement(x, KHAT), LieElement(y, KHAT)

        def rho(e, w):
            return act(e, w, mod)

        want = law(rho, ex, ey, bracket(ex, ey), ModuleVector(v))
        got = multilinear(lambda g, h, key: module_axiom_residual(g, h, key, mod),
                          ModuleVector(), x, y, v)
        assert got == want, (ex.render(), ey.render(), ModuleVector(v).render())
        hits += not want.is_zero()
    assert (hits > 0) == (convention is SignConvention.PAPER_PRINTED)
