"""Bracket relations, the two actions, and the compatibility residuals."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscheck.algebra import (
    AElement,
    AMode,
    AMonomial,
    AlgebraError,
    AlgebraMode,
    A_action_on_k,
    C,
    G,
    Gen,
    HalfInt,
    L,
    LieElement,
    basis,
    bracket,
    bracket_basis,
    compatibility_residual,
    extend,
    gen_act_amon,
    half,
    k_action_on_A,
)
from nscheck.enveloping import SmashElement
from nscheck.modules import BasisKey, ModuleVector
from nscheck.scalars import Scalar

KHAT = AlgebraMode.KHAT
K = AlgebraMode.K
KPLUS = AlgebraMode.KPLUS


def lie(g, mode=KHAT):
    return LieElement.basis(g, mode)


class TestBasis:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_ranges_per_mode(self, r):
        ls = [L(n) for n in range(-r, r + 1)]
        gs = [G(half(d)) for d in range(1 - 2 * r, 2 * r, 2)]
        assert basis(r) == [C] + ls + gs
        assert basis(r, K) == ls + gs
        # contact bound: L(n) for n >= -1, G(r) for r >= -1/2
        assert basis(r, KPLUS) == ([L(n) for n in range(-1, r + 1)]
                                   + [G(half(d)) for d in range(-1, 2 * r, 2)])

    @pytest.mark.parametrize("r", [0, -1])
    def test_empty_range_rejected(self, r):
        for mode in AlgebraMode:
            with pytest.raises(AlgebraError, match="at least 1"):
                basis(r, mode)


class TestHalfInt:
    def test_arithmetic(self):
        assert half(7).render() == "7/2"
        assert half(4).render() == "2"
        assert (half(1) + half(2)).doubled == 3
        assert HalfInt.of(Fraction(3, 2)).doubled == 3
        with pytest.raises(AlgebraError):
            HalfInt.of(Fraction(1, 3))


class TestExactIndices:
    """Indices enter the exact pipeline only as ints, Fractions or HalfInts."""

    def test_center_takes_no_index(self):
        with pytest.raises(AlgebraError, match="no index"):
            Gen("C", HalfInt(4))
        assert Gen("C", HalfInt(0)) == C

    @pytest.mark.parametrize("k", [1.5, 2.0, Fraction(3), True],
                             ids=["float", "integral-float", "Fraction", "bool"])
    def test_amonomial_exponent_is_an_int(self, k):
        with pytest.raises(AlgebraError, match="t exponent"):
            AMonomial(k, 0)
        with pytest.raises(AlgebraError, match="t exponent"):
            AElement.monomial(k)
        with pytest.raises(AlgebraError, match="t exponent"):
            BasisKey(k, 0)

    @pytest.mark.parametrize("value", [1.0, 0.5, "1/2", True],
                             ids=["integral-float", "float", "str", "bool"])
    def test_half_int_of_rejects_inexact_values(self, value):
        with pytest.raises(AlgebraError, match="exact half-integer"):
            HalfInt.of(value)
        with pytest.raises(AlgebraError):
            L(value)
        with pytest.raises(AlgebraError):
            G(value)

    def test_half_int_of_accepts_exact_values(self):
        assert HalfInt.of(3) == HalfInt(6)
        assert HalfInt.of(Fraction(-1, 2)) == HalfInt(-1)
        assert HalfInt.of(Fraction(4, 2)) == HalfInt(4)
        assert HalfInt.of(half(5)) == half(5)


class TestExtend:
    def test_cancellation_onto_one_target(self):
        table = {"a": [("x", Fraction(1))], "b": [("x", Fraction(-2))]}
        assert extend([("a", Fraction(2)), ("b", Fraction(1))], table.__getitem__) == {}

    def test_fraction_and_scalar_coefficients(self):
        table = {"a": [("x", Fraction(1, 2)), ("y", 3)], "b": [("y", Fraction(1))]}
        got = extend([("a", Fraction(2, 3)), ("b", Fraction(-2))], table.__getitem__)
        assert got == {"x": Fraction(1, 3)}
        got = extend([("a", Scalar.of(6)), ("b", Scalar.of(1))], table.__getitem__)
        assert got == {"x": Scalar.of(3), "y": Scalar.of(19)}
        assert all(isinstance(c, Scalar) for c in got.values())

    def test_empty_terms_and_empty_images(self):
        assert extend([], None) == {}
        assert extend([("a", Fraction(5))], lambda k: ()) == {}


class TestBracket:
    def test_ll_without_center(self):
        assert bracket(lie(L(2)), lie(L(3))) == lie(L(5))

    def test_ll_cocycle(self):
        got = bracket(lie(L(2)), lie(L(-2)))
        want = LieElement({L(0): Scalar.of(-4), C: Scalar.of(Fraction(1, 2))}, KHAT)
        assert got == want

    def test_gg_vanishing_center(self):
        got = bracket(lie(G(half(1))), lie(G(half(-1))))
        assert got == lie(L(0)).scale(-2)

    def test_gg_with_center(self):
        got = bracket(lie(G(half(3))), lie(G(half(-3))))
        want = LieElement({L(0): Scalar.of(-2), C: Scalar.of(Fraction(2, 3))}, KHAT)
        assert got == want

    def test_antisymmetry_even(self):
        assert bracket(lie(L(0)), lie(L(0))).is_zero()

    def test_central_terms_dropped_outside_khat(self):
        got = bracket(lie(L(2), K), lie(L(-2), K))
        assert got == lie(L(0), K).scale(-4)

    def test_mode_mismatch(self):
        with pytest.raises(AlgebraError):
            bracket(lie(L(0), KHAT), lie(L(0), K))

    def test_kplus_bounds(self):
        with pytest.raises(AlgebraError):
            lie(L(-2), KPLUS)
        assert bracket(lie(L(-1), KPLUS), lie(G(half(-1)), KPLUS)).is_zero()


class TestDisplayedTables:
    """The module docstring's bracket table, its cocycles and its A-action
    table, written out here as an oracle for the derived structure table."""

    @staticmethod
    def displayed_bracket(x, y, with_center):
        if C in (x, y):
            return {}
        sign = 1
        if x.kind == "G" and y.kind == "L":
            # [G_r, L_m] = -[L_m, G_r]
            x, y, sign = y, x, -1
        a, b = x.index.as_fraction(), y.index.as_fraction()
        out = {}
        if x.kind == "L" and y.kind == "L":
            out[L(int(a + b))] = b - a
            if with_center and a + b == 0:
                out[C] = (a**3 - a) / 12
        elif x.kind == "L":
            out[G(a + b)] = sign * (b - a / 2)
        else:
            out[L(int(a + b))] = Fraction(-2)
            if with_center and a + b == 0:
                out[C] = (a * a - Fraction(1, 4)) / 3
        return {g: c for g, c in out.items() if c}

    @staticmethod
    def displayed_action(i, eps, g):
        """(target, coefficient) of t^i g or xi g, or None for xi G_m = 0."""
        if eps == 0:
            return Gen(g.kind, g.index + HalfInt(2 * i)), Fraction(1)
        if g.kind == "L":
            return G(g.index.as_fraction() + Fraction(1, 2)), Fraction(1, 2)
        return None

    @pytest.mark.parametrize("with_center", [True, False])
    def test_bracket_table(self, with_center):
        for x, y in product(basis(8), repeat=2):
            got = list(bracket_basis(x, y, with_center))
            want = self.displayed_bracket(x, y, with_center)
            assert dict(got) == want and len(got) == len(want), (x.render(), y.render())

    @pytest.mark.parametrize("mode", [K, KPLUS])
    def test_a_action_table(self, mode):
        monomials = [(i, 0) for i in range(-5, 6)] + [(0, 1)]
        violations = 0
        for (i, eps), g in product(monomials, basis(8, mode)):
            a = AElement.monomial(i, eps)
            shown = self.displayed_action(i, eps, g)
            if shown is not None and not mode.admits(shown[0]):
                with pytest.raises(AlgebraError) as err:
                    A_action_on_k(a, lie(g, mode))
                want = f"action result {shown[0].render()} violates mode {mode.value}"
                assert str(err.value) == want
                violations += 1
                continue
            want = LieElement.zero(mode)
            if shown is not None:
                want = lie(shown[0], mode).scale(shown[1])
            assert A_action_on_k(a, lie(g, mode)) == want, (i, eps, g.render())
        # only the contact subalgebra has targets outside its mode
        assert (violations > 0) == (mode is KPLUS)

    def test_central_element_not_acted_on(self):
        with pytest.raises(AlgebraError, match="central element"):
            A_action_on_k(AElement.monomial(1), lie(C))


def test_super_antisymmetry_on_basis():
    gens = [L(n) for n in range(-2, 3)] + [G(half(d)) for d in (-3, -1, 1, 3)]
    for x, y in product(gens, repeat=2):
        lhs = bracket(lie(x), lie(y))
        rhs = bracket(lie(y), lie(x))
        sign = -1 if (x.parity and y.parity) else 1
        assert lhs == rhs.scale(-sign), (x.render(), y.render())


def test_grading_by_ad_l0():
    for g in [L(-3), L(2), G(half(5)), G(half(-1))]:
        got = bracket(lie(L(0)), lie(g))
        assert got == lie(g).scale(g.degree.as_scalar())


class TestActions:
    def test_l_on_t(self):
        got = k_action_on_A(lie(L(1), K), AElement.monomial(2))
        assert got == AElement.monomial(3, coeff=2)

    def test_g_on_xi(self):
        got = k_action_on_A(lie(G(half(1)), K), AElement.monomial(0, 1))
        assert got == AElement.monomial(1, 0, coeff=-1)

    def test_l0_kills_unit(self):
        assert k_action_on_A(lie(L(0), K), AElement.monomial(0)).is_zero()

    def test_central_element_rejected(self):
        with pytest.raises(AlgebraError):
            k_action_on_A(lie(C, KHAT), AElement.monomial(0))

    def test_center_acts_as_zero_in_the_table(self):
        # the PBW rewriting passes C to the table; C is central
        assert [gen_act_amon(C, AMonomial(k, e)) for k in (-1, 0, 2) for e in (0, 1)] == [()] * 6

    def test_a_action_shift(self):
        assert A_action_on_k(AElement.monomial(2), lie(L(3), K)) == lie(L(5), K)

    def test_a_action_xi_on_l(self):
        got = A_action_on_k(AElement.monomial(0, 1), lie(L(3), K))
        assert got == lie(G(half(7)), K).scale(Scalar.of(Fraction(1, 2)))

    def test_a_action_xi_on_g(self):
        assert A_action_on_k(AElement.monomial(0, 1), lie(G(half(1)), K)).is_zero()

    def test_a_mode_mixing_rejected(self):
        a = AElement.monomial(1)
        a_plus = AElement.monomial(1, mode=AMode.APLUS)
        with pytest.raises(AlgebraError):
            a + a_plus
        with pytest.raises(AlgebraError):
            a_plus - a
        assert a != a_plus

    @pytest.mark.parametrize("pair", ["lie+vector", "vector+a", "lie+smash", "smash+lie"])
    def test_type_mixing_rejected(self, pair):
        elements = {
            "lie": lie(L(1)),
            "vector": ModuleVector.basis(BasisKey(0, 0)),
            "a": AElement.monomial(1),
            "smash": SmashElement.gen(L(1), KHAT),
        }
        left, right = pair.split("+")
        with pytest.raises(AlgebraError, match="cannot combine"):
            elements[left] + elements[right]

    def test_a_action_kplus_bound_violation(self):
        with pytest.raises(AlgebraError) as err:
            A_action_on_k(AElement.monomial(-3), lie(L(0), KPLUS))
        assert "L(-3)" in str(err.value)


def test_action_is_representation():
    rng = 2
    gens = [L(n) for n in range(-rng, rng + 1)] + [
        G(half(d)) for d in range(-2 * rng + 1, 2 * rng, 2)
    ]
    for x, y in product(gens, repeat=2):
        ex, ey = lie(x, K), lie(y, K)
        for i in range(-rng, rng + 1):
            for eps in (0, 1):
                a = AElement.monomial(i, eps)
                got = k_action_on_A(ex, k_action_on_A(ey, a))
                swap = k_action_on_A(ey, k_action_on_A(ex, a))
                got = got + swap if (x.parity and y.parity) else got - swap
                assert got == k_action_on_A(bracket(ex, ey), a)


class TestCompatibility:
    def test_unit_of_a(self):
        r = compatibility_residual(lie(L(2), K), AElement.monomial(0), lie(L(-1), K))
        assert r.is_zero()

    def test_all_eight_families(self):
        rng = 2
        vs = [L(n) for n in range(-rng, rng + 1)] + [
            G(half(d)) for d in range(-2 * rng + 1, 2 * rng, 2)
        ]
        for v in vs:
            for x in vs:
                for i in range(-rng, rng + 1):
                    for eps in (0, 1):
                        r = compatibility_residual(
                            lie(v, K), AElement.monomial(i, eps), lie(x, K)
                        )
                        assert r.is_zero(), (v.render(), i, eps, x.render())

    def test_needs_homogeneous(self):
        mixed = lie(L(0), K) + lie(G(half(1)), K)
        with pytest.raises(AlgebraError):
            compatibility_residual(mixed, AElement.monomial(0), lie(L(0), K))


gen_strategy = st.one_of(
    st.integers(-3, 3).map(L),
    st.integers(-3, 2).map(lambda n: G(half(2 * n + 1))),
    st.just(C),
)


@given(gen_strategy, gen_strategy, gen_strategy)
@settings(max_examples=80, deadline=None)
def test_graded_jacobi_random_triples(x, y, z):
    ex, ey, ez = lie(x), lie(y), lie(z)
    lhs = bracket(ex, bracket(ey, ez))
    rhs = bracket(bracket(ex, ey), ez)
    inner = bracket(ey, bracket(ex, ez))
    rhs = rhs - inner if (x.parity and y.parity) else rhs + inner
    assert lhs == rhs


def test_rendering():
    e = LieElement({L(0): Scalar.of(-4), C: Scalar.of(Fraction(1, 2))}, KHAT)
    assert e.render() == "-4*L(0) + 1/2*C"
    assert lie(G(half(7))).scale(Scalar.of(Fraction(1, 2))).render() == "1/2*G(7/2)"
    a = AElement.monomial(2, 1, coeff=3)
    assert a.render() == "3*t^2*xi"
