"""The coefficient rule on elements and on the module action.

An element stores an int when a coefficient is integral, a Fraction with
denominator > 1 when it is otherwise rational, and a Scalar only when it
involves l or b.  The basis-level module action, its edge records and the
scalings of an intertwiner follow the same rule, with no exception: the
"scalars" of the test names below are coefficients under this rule, and
``find_intertwiner`` forms its ratios with ``Fraction(c2, c1)``, exact for
two ints.
"""

from fractions import Fraction
from itertools import product

import pytest

from nscheck.algebra import (
    AElement,
    AlgebraMode,
    AMonomial,
    G,
    HalfInt,
    L,
    LieElement,
    basis,
    bracket,
    k_action_on_A,
)
from nscheck.analysis import find_intertwiner, module_edges
from nscheck.enveloping import SmashElement, g_prime, gl_sum, l_prime, omega, smash_bracket
from nscheck.modules import (
    BasisKey,
    ModuleVector,
    SignConvention,
    Window,
    act,
    gamma,
    gamma_plus,
    gamma_prime,
    module_axiom_residual,
    parity_change,
)
from nscheck.scalars import B, LAMBDA, Scalar, ScalarError

F = Fraction
K = AlgebraMode.K
W = Window(-10, 10, 3)


def follows_rule(c) -> bool:
    if type(c) is int:
        return True
    if type(c) is Fraction:
        return c.denominator > 1
    return type(c) is Scalar and not c.is_numeric()


def elements():
    """(name, element) pairs, each nonzero: the named smash elements, the
    primed brackets of the psi table, Lie and A products, and a formal
    module residual and image."""
    lp = {n: l_prime(n) for n in range(-1, 4)}
    gp = {n: g_prime(n) for n in range(4)}
    yield "omega", omega(2, -1, 2)
    yield "omega/K", omega(1, 0, 1, K)
    yield "gl_sum", gl_sum(HalfInt(3), 1, 2)
    for n, x in lp.items():
        yield f"l_prime({n})", x
    for n, x in gp.items():
        yield f"g_prime({n})", x
    yield "psi/LL", smash_bracket(lp[1], lp[2])
    yield "psi/LG", smash_bracket(lp[1], gp[2])
    yield "psi/GG", smash_bracket(gp[1], gp[2])
    formal = gamma(LAMBDA, B, convention=SignConvention.PAPER_PRINTED)
    yield "module_axiom_residual", module_axiom_residual(G(F(1, 2)), G(F(-1, 2)), BasisKey(0, 0),
                                                         formal)
    yield "act/omega", act(omega(1, 0, 1), ModuleVector.basis(BasisKey(0, 1)), gamma(LAMBDA, B))
    yield "bracket", bracket(LieElement.basis(L(2), K, F(1, 3)), LieElement.basis(G(F(1, 2)), K))
    yield "k_action_on_A", k_action_on_A(LieElement.basis(L(1), K, F(1, 2)),
                                         AElement.monomial(1, 1))


@pytest.mark.parametrize("elem", [pytest.param(e, id=name) for name, e in elements()])
def test_element_coefficients_follow_the_rule(elem):
    assert elem.terms
    assert [(k, c) for k, c in elem.terms.items() if not follows_rule(c)] == []


def test_every_coefficient_kind_occurs():
    # not vacuous: the elements above store ints, Fractions and Scalars
    kinds = {type(c) for _, elem in elements() for c in elem.terms.values()}
    assert kinds == {int, Fraction, Scalar}


@pytest.mark.parametrize("build", [
    lambda c: LieElement.basis(L(1), K, c),
    lambda c: AElement.monomial(2, 1, coeff=c),
    lambda c: SmashElement.term(AMonomial(1, 0), (L(-1), G(F(1, 2))), K, c),
    lambda c: ModuleVector.basis(BasisKey(1, 1), c),
], ids=["lie", "A", "smash", "vector"])
def test_mixed_representations_build_one_element(build):
    for value, forms in ((2, (Scalar.of(2), 2, Fraction(4, 2))),
                         (F(-3, 2), (Scalar.of(F(-3, 2)), F(-3, 2), F(6, -4)))):
        elems = [build(c) for c in forms]
        assert [type(c) for e in elems for c in e.terms.values()] == [type(value)] * 3
        assert all(e == elems[0] for e in elems)
        assert len({hash(e) for e in elems}) == 1
        assert len({e.render() for e in elems}) == 1
        assert elems[0].scale(Scalar.of(2)) == elems[0].scale(2) == elems[0] + elems[0]
    with pytest.raises(ScalarError):
        build(1).scale(0.5)
    with pytest.raises(ScalarError):
        build(0.5)


def test_symbolic_coefficient_that_cancels_to_a_rational_is_stored_rational():
    x = LieElement({L(1): LAMBDA + 1, L(2): LAMBDA - LAMBDA}, K)
    y = x + LieElement.basis(L(1), K, -LAMBDA)
    assert y.terms == {L(1): 1} and type(y.terms[L(1)]) is int
    assert x.terms == {L(1): LAMBDA + 1}
    assert y.render() == "L(1)" and x.render() == "(l + 1)*L(1)"


# the module action keeps the rule, on numeric and formal handles alike

HANDLES = [gamma(F(1, 3), F(1, 4)), gamma(0, F(1, 2)), gamma(2, 0), gamma_prime(0, 0),
           gamma_plus(F(1, 4)), parity_change(gamma_prime(0, F(1, 2))), gamma(LAMBDA, B)]


@pytest.mark.parametrize("mod", HANDLES, ids=repr)
def test_basis_level_actions_are_scalars(mod):
    seen = 0
    for g, k, eps in product(basis(3, mod.algebra_mode), range(-4, 5), (0, 1)):
        key = BasisKey(k, eps)
        if not mod.admissible(key):
            continue
        for _, c in mod.gen_action(g, key):
            assert follows_rule(c), (mod, g, key, c)
            seen += 1
        for mono in (AMonomial(1, 0), AMonomial(0, 1), AMonomial(-1, 1)):
            if mod.a_acts(mono):
                for _, c in mod.amon_action(mono, key):
                    assert follows_rule(c), (mod, mono, key, c)
                    seen += 1
    assert seen


@pytest.mark.parametrize("mod", HANDLES, ids=repr)
def test_edge_records_carry_scalars(mod):
    records = [e for out in module_edges(mod, W, 3).values() for e in out]
    assert records and all(follows_rule(e.coefficient) for e in records)


@pytest.mark.parametrize("m1, m2, parity, keys", [
    (gamma(F(1, 3), F(1, 4)), gamma(F(4, 3), F(1, 4)), "even", 28),
    (gamma(F(1, 3), F(1, 2)), gamma(F(4, 3), 0), "odd", 29),
    (gamma_prime(0, 0), parity_change(gamma_prime(0, F(1, 2))), "even", 28),
    # integral parameters: many edge ratios are quotients of two ints
    (gamma(-2, 0), gamma(-1, 0), "even", 28),
], ids=["integer-shift", "exceptional", "gamma-prime", "integral"])
def test_intertwiner_scalings_are_scalars(m1, m2, parity, keys):
    got = find_intertwiner(m1, m2, W, 3)
    assert got is not None and got.parity == parity and len(got.mapping) == keys
    scalings = [c for _, _, c in got.mapping]
    assert all(follows_rule(c) and type(c) is not Scalar for c in scalings)
    assert all(c for c in scalings)
