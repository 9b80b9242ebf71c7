"""Bracket relations, the two actions, and the compatibility residuals."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nscheck.enveloping as enveloping
from nscheck.algebra import (
    AElement,
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
    _int_gen_act_amon,
    amon_act_gen,
    basis,
    bracket,
    bracket_basis,
    compatibility_residual,
    extend,
    gen_act_amon,
    half,
    k_action_on_A,
)
from nscheck.analysis import verify_identity_catalogue
from nscheck.enveloping import SmashElement
from nscheck.modules import BasisKey, ModuleVector
from nscheck.scalars import B, LAMBDA, Scalar

KHAT = AlgebraMode.KHAT
K = AlgebraMode.K
KPLUS = AlgebraMode.KPLUS


def lie(g, mode=KHAT):
    return LieElement.basis(g, mode)


def coefficient_rule(c) -> bool:
    """The coefficient rule of ``scalars``: an int when integral, else a
    Fraction with denominator greater than 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


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


class TestKeyContract:
    """Keys are tuple values: HalfInt is (doubled,), Gen is (kind, index) and
    AMonomial/BasisKey is (k, eps)."""

    def test_render_and_repr(self):
        assert [half(-3).render(), half(4).render()] == ["-3/2", "2"]
        assert repr(half(-3)) == "HalfInt(doubled=-3)"
        assert [L(-1).render(), G(Fraction(1, 2)).render(), C.render()] == ["L(-1)", "G(1/2)", "C"]
        assert repr(G(Fraction(-1, 2))) == "Gen(kind='G', index=HalfInt(doubled=-1))"
        assert repr(C) == "Gen(kind='C', index=HalfInt(doubled=0))"
        assert [AMonomial(k, e).render() for k, e in [(0, 0), (1, 0), (-2, 0), (0, 1), (1, 1), (3, 1)]] \
            == ["1", "t", "t^-2", "xi", "t*xi", "t^3*xi"]
        assert [BasisKey(k, e).render() for k, e in [(0, 0), (-2, 1)]] == ["t^0", "t^-2 xi"]
        assert repr(AMonomial(2, 1)) == "AMonomial(k=2, eps=1)"
        assert repr(BasisKey(-1, 0)) == "BasisKey(k=-1, eps=0)"
        assert str(BasisKey(-1, 0)) == "BasisKey(k=-1, eps=0)"

    def test_order_is_field_order(self):
        halves = [half(d) for d in range(6, -7, -1)]
        assert sorted(halves) == sorted(halves, key=lambda h: (h.doubled,))
        for cls in (AMonomial, BasisKey):
            keys = [cls(k, e) for k in range(3, -4, -1) for e in (1, 0)]
            assert sorted(keys) == sorted(keys, key=lambda m: (m.k, m.eps))
            assert cls(-1, 1) < cls(0, 0) < cls(0, 1)

    def test_hash_is_the_field_tuple_hash(self):
        keys = [half(-3), L(2), G(Fraction(3, 2)), C, AMonomial(-1, 1), BasisKey(2, 0)]
        for key in keys:
            assert hash(key) == hash(tuple(key))
        assert tuple(L(2)) == ("L", half(4)) and tuple(BasisKey(2, 0)) == (2, 0)

    def test_immutable_without_dict(self):
        for key, field in [(half(1), "doubled"), (L(1), "kind"), (L(1), "index"),
                           (AMonomial(0, 1), "k"), (BasisKey(0, 1), "eps")]:
            with pytest.raises(AttributeError):
                setattr(key, field, 0)
            assert not hasattr(key, "__dict__")

    def test_copy_and_pickle_round_trip(self):
        for key in [half(-3), G(Fraction(1, 2)), C, AMonomial(2, 1), BasisKey(-1, 0)]:
            for twin in (copy.copy(key), copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
                assert type(twin) is type(key) and twin == key

    def test_generators_are_unordered(self):
        with pytest.raises(TypeError):
            L(1) < L(2)
        with pytest.raises(TypeError):
            sorted([L(2), G(Fraction(1, 2)), C])
        assert sorted([L(2), G(Fraction(1, 2)), C], key=Gen.sort_key) == [C, G(Fraction(1, 2)), L(2)]

    def test_action_memo_keeps_the_key_type(self):
        # the derivation rule gives every target the type of its key, and
        # equal keys of the two sibling types share no entry of its cache
        for m in (AMonomial(2, 1), BasisKey(2, 1)):
            for table in (gen_act_amon, _int_gen_act_amon):
                (target, _), = table(L(1), m)
                assert type(target) is type(m)

    def test_equality_is_by_fields(self):
        # the accepted contract: equality is by fields, also across the
        # sibling key types AMonomial and BasisKey, which never share a table
        assert BasisKey(0, 0) == AMonomial(0, 0)
        assert half(2) == half(2) and half(2) != half(3)
        assert L(0) != C and AMonomial(0, 1) != AMonomial(0, 0)


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

    def test_int_fraction_and_scalar_cancel_onto_one_target(self):
        # 3 - 2 - 1 on "x", summed in every order of the three types
        table = {"a": [("x", 3)], "b": [("x", Fraction(1, 2))], "c": [("x", Scalar.of(-1))]}
        terms = [("a", 1), ("b", Fraction(-4)), ("c", 1)]
        for order in permutations(terms):
            assert extend(order, table.__getitem__) == {}, order


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
        """(target, coefficient) of t^i xi^eps g, or None for xi G_m = 0."""
        if eps == 0:
            return Gen(g.kind, g.index + HalfInt(2 * i)), Fraction(1)
        if g.kind == "L":
            return G(g.index.as_fraction() + i + Fraction(1, 2)), Fraction(1, 2)
        return None

    @staticmethod
    def displayed_derivation(g, k, eps):
        """(target, coefficient) of g o t^k xi^eps, from the three rules of
        ``gen_act_amon``; None when the coefficient vanishes."""
        if g.kind == "L":
            i = g.index.as_int()
            target, c = AMonomial(i + k, eps), k + Fraction(eps * (i + 1), 2)
        elif eps == 0:
            target, c = AMonomial(int(g.index.as_fraction() + k - Fraction(1, 2)), 1), Fraction(k)
        else:
            target, c = AMonomial(int(g.index.as_fraction() + k + Fraction(1, 2)), 0), Fraction(-1)
        return (target, c) if c else None

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

    @pytest.mark.parametrize("with_center", [True, False])
    @pytest.mark.parametrize("mode", list(AlgebraMode), ids=lambda m: m.value)
    def test_tables_keep_the_coefficient_rule(self, mode, with_center):
        """Every cached structure constant is an int when integral, else a
        Fraction with denominator > 1, and equals its displayed formula."""
        gens = basis(6, mode)
        amons = [AMonomial(k, eps) for k in range(-6, 7) for eps in (0, 1)]
        for x, y in product(gens, repeat=2):
            got = bracket_basis(x, y, with_center)
            assert all(coefficient_rule(c) for _, c in got), (x.render(), y.render(), got)
            assert dict(got) == self.displayed_bracket(x, y, with_center)
        for g, m in product(gens, amons):
            if g.kind == "C":
                assert gen_act_amon(g, m) == ()  # the center acts as 0
                continue
            for got, shown in ((gen_act_amon(g, m), self.displayed_derivation(g, m.k, m.eps)),
                               (amon_act_gen(m, g), self.displayed_action(m.k, m.eps, g))):
                assert all(coefficient_rule(c) for _, c in got), (g.render(), m.render(), got)
                assert got == (() if shown is None else (shown,)), (g.render(), m.render())


def test_pbw_tables_keep_the_coefficient_rule(monkeypatch, fresh_tables):
    """Every entry that the PBW caches fill while the identity catalogue
    runs keeps the coefficient rule: each fill passes a recording wrapper."""
    seen = []
    for name in ("_insert_gen", "_pbw_mul", "_pbw_past_amon"):
        def recorded(*args, _table=getattr(enveloping, name)):
            out = _table(*args)
            seen.extend(c for _, c in out)
            return out

        monkeypatch.setattr(enveloping, name, recorded)
    verify_identity_catalogue(2)
    assert len(seen) > 1000
    assert all(coefficient_rule(c) for c in seen), [c for c in seen if not coefficient_rule(c)][:5]


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
        assert got == lie(g).scale(g.degree.as_fraction())


class TestActions:
    def test_l_on_t(self):
        got = k_action_on_A(lie(L(1), K), AElement.monomial(2))
        assert got == AElement.monomial(3).scale(2)

    def test_g_on_xi(self):
        got = k_action_on_A(lie(G(half(1)), K), AElement.monomial(0, 1))
        assert got == AElement.monomial(1, 0).scale(-1)

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
@settings(max_examples=80, deadline=None, derandomize=True)
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
    a = AElement.monomial(2, 1).scale(3)
    assert a.render() == "3*t^2*xi"


# ---------------------------------------------------------------------------
# multi-term outputs of the three element-level products, pinned by digest
# ---------------------------------------------------------------------------

PIN_SAMPLES = 40
PIN_COEFFS = {
    "numeric": (-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)),
    "formal": (LAMBDA, B, LAMBDA + 1, 2 * B - 1, LAMBDA * B, Fraction(3, 2)),
}


def _pin_lie(rng, mode, coeffs, with_center=True):
    gens = [g for g in basis(2, mode) if with_center or g.kind != "C"]
    return LieElement({g: Scalar.of(rng.choice(coeffs))
                       for g in rng.sample(gens, rng.randint(2, 4))}, mode)


def _pin_a(rng, mode, coeffs):
    lo = 0 if mode is AlgebraMode.KPLUS else -2
    amons = [AMonomial(k, eps) for k in range(lo, 3) for eps in (0, 1)]
    return AElement({m: Scalar.of(rng.choice(coeffs))
                     for m in rng.sample(amons, rng.randint(2, 4))})


# each product on the operands it admits in ``mode``: the bracket on any two
# elements, the two actions on elements without C and A-parts of the mode's
# coefficient algebra
PIN_PRODUCTS = {
    "bracket": lambda rng, mode, cs: bracket(_pin_lie(rng, mode, cs), _pin_lie(rng, mode, cs)),
    "k_action_on_A": lambda rng, mode, cs: k_action_on_A(_pin_lie(rng, mode, cs, False),
                                                         _pin_a(rng, mode, cs)),
    "A_action_on_k": lambda rng, mode, cs: A_action_on_k(_pin_a(rng, mode, cs),
                                                         _pin_lie(rng, mode, cs, False)),
}

# sha256 of the rendered outputs, recorded before the products were written
# as one bilinear extension
PIN_DIGESTS = {
    ("bracket", "numeric"):
        "91ed103644158a0b80a6263ee0fb7918033ea97db118498f9c6191c9762867dc",
    ("bracket", "formal"):
        "72eccfdb66470156bd5c2419212a60a80bcc7397bb7311dc2912e0ec38306b18",
    ("k_action_on_A", "numeric"):
        "90ea4f0bd15a0e13f1a28c398add9f211191c0ab1569c73aabe62792d58af05a",
    ("k_action_on_A", "formal"):
        "682a8168805c80b3a09a29164a196cac354aaac5e4e1b6fbdd55f77c3bc894ff",
    ("A_action_on_k", "numeric"):
        "3958b216b6e0ccdc5c7bb096a3ce8c3047d614935036f13213f3b3919c8941b9",
    ("A_action_on_k", "formal"):
        "750c815ce5c35160671edeea16863ba4feab23628b478ac094cf6ca5d20a23d5",
}


@pytest.mark.parametrize("name, coeffs", list(PIN_DIGESTS))
def test_product_digest(name, coeffs):
    rng = random.Random(f"product-pin/{name}/{coeffs}")
    lines, nonzero = [], 0
    for mode in AlgebraMode:
        for _ in range(PIN_SAMPLES):
            out = PIN_PRODUCTS[name](rng, mode, PIN_COEFFS[coeffs])
            lines.append(f"{mode.value}: {out.render()}")
            nonzero += len(out.terms) > 1
    assert nonzero > PIN_SAMPLES  # multi-term outputs in every pin
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PIN_DIGESTS[name, coeffs]
