"""Smash-algebra normal forms, named elements, reconstruction identities.

``reference_product`` is the smash product as it was before the one-pass
table: a double loop over the pairs of terms, merged with ``accumulate``,
with the A-parts multiplied by the degree rule of ``AMonomial``.
``smash_product`` and ``smash_bracket`` must agree with it, and with the
bracket built from it, coefficient for coefficient and by coefficient type.
"""

import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nscheck.enveloping as enveloping
from nscheck.algebra import (
    A_ONE,
    AMonomial,
    AlgebraError,
    AlgebraMode,
    C,
    G,
    HalfInt,
    L,
    accumulate,
    half,
)
from nscheck.analysis import a_g_chain, a_l_chain
from nscheck.enveloping import (
    SmashElement,
    _pbw_mul,
    _pbw_past_amon,
    g_prime,
    gl_sum,
    l_prime,
    omega,
    smash_bracket,
    smash_product,
    verify_reconstruction,
)
from nscheck.modules import BasisKey
from nscheck.scalars import B, LAMBDA, Scalar

U = AlgebraMode.KHAT
AK = AlgebraMode.K
APKP = AlgebraMode.KPLUS


def gen(g, mode=U):
    return SmashElement.gen(g, mode)


def term(k, eps, gens, mode=U, coeff=1):
    return SmashElement({(AMonomial(k, eps), tuple(gens)): coeff}, mode)


class TestProduct:
    def test_single_reordering(self):
        got = smash_product(gen(L(1)), gen(L(-1)))
        want = term(0, 0, [L(-1), L(1)]) + term(0, 0, [L(0)], coeff=-2)
        assert got == want

    def test_odd_square(self):
        got = smash_product(gen(G(half(1))), gen(G(half(1))))
        assert got == term(0, 0, [L(1)], coeff=-1)

    def test_generator_past_amonomial(self):
        got = smash_product(gen(L(-1), AK), SmashElement.amon(1, 0, AK))
        want = term(1, 0, [L(-1)], AK) + term(0, 0, [], AK)
        assert got == want

    def test_mode_mismatch(self):
        with pytest.raises(AlgebraError):
            smash_product(gen(L(0), U), gen(L(0), AK))

    def test_degree_guard(self):
        big = gen(L(4))
        for n in range(3):
            big = smash_product(big, gen(L(4)))
        with pytest.raises(AlgebraError):
            smash_product(big, smash_product(big, big))

    def test_pure_mode_rejects_a_part(self):
        with pytest.raises(AlgebraError):
            SmashElement.amon(1, 0, U)

    def test_cocycle_in_normal_form(self):
        got = smash_product(gen(L(2)), gen(L(-2)))
        want = (term(0, 0, [L(-2), L(2)]) + term(0, 0, [L(0)], coeff=-4)
                + term(0, 0, [C], coeff=Fraction(1, 2)))
        assert got == want


class TestOmega:
    def test_order_zero_is_ordered_product(self):
        assert omega(0, 1, 0) == term(0, 0, [L(0), L(1)])
        assert omega(1, 0, 0) == smash_product(gen(L(1)), gen(L(0)))

    def test_order_one_telescopes(self):
        assert omega(1, 0, 1) == term(0, 0, [L(1)], coeff=-1)

    def test_order_two_frozen(self):
        # hand expansion: L3 L0 - 2 L2 L1 + L1 L2 -> L0 L3 - L1 L2 - L3
        want = (term(0, 0, [L(0), L(3)]) + term(0, 0, [L(1), L(2)], coeff=-1)
                + term(0, 0, [L(3)], coeff=-1))
        assert omega(3, 0, 2) == want

    def test_gl_sum_small(self):
        # G_{1/2} L_0 - G_{-1/2} L_1 = L_0 G_{1/2} - 1/2 G_{1/2} - G_{-1/2} L_1
        want = (term(0, 0, [L(0), G(half(1))]) + term(0, 0, [G(half(1))], coeff=Fraction(-1, 2))
                + term(0, 0, [G(half(-1)), L(1)], coeff=-1))
        assert gl_sum(half(1), 0, 1) == want


class TestNamedElements:
    def test_l_prime_zero(self):
        want = (term(0, 0, [L(0)], AK) + term(1, 0, [L(-1)], AK, coeff=-1)
                + term(0, 1, [G(half(-1))], AK, coeff=Fraction(1, 2)))
        assert l_prime(0, AK) == want

    def test_l_prime_extension(self):
        assert l_prime(-1, AK) == term(0, 0, [L(-1)], AK, coeff=-1)

    def test_l_prime_one(self):
        # expansion of the defining sum; leading coefficient of L(1) is (-1)^1
        want = (term(0, 0, [L(1)], AK, coeff=-1) + term(1, 0, [L(0)], AK, coeff=2)
                + term(2, 0, [L(-1)], AK, coeff=-1)
                + term(0, 1, [G(half(1))], AK, coeff=-1)
                + term(1, 1, [G(half(-1))], AK))
        assert l_prime(1, AK) == want

    def test_g_prime_zero(self):
        want = term(0, 0, [G(half(-1))], AK) + term(0, 1, [L(-1)], AK, coeff=-2)
        assert g_prime(0, AK) == want

    def test_g_prime_one(self):
        want = (term(1, 0, [G(half(-1))], AK) + term(1, 1, [L(-1)], AK, coeff=-2)
                + term(0, 0, [G(half(1))], AK, coeff=-1)
                + term(0, 1, [L(0)], AK, coeff=2))
        assert g_prime(1, AK) == want

    def test_index_bounds(self):
        with pytest.raises(AlgebraError):
            l_prime(-2)
        with pytest.raises(AlgebraError):
            g_prime(-1)


class TestReconstruction:
    def test_range(self):
        for n in range(0, 9):
            res_l, res_g = verify_reconstruction(n)
            assert res_l.is_zero(), n
            assert res_g.is_zero(), n

    def test_mutated_extension_fails_at_zero(self, flipped_extension):
        flipped_extension()
        res_l, res_g = verify_reconstruction(0)
        want = term(0, 1, [L(-1)], APKP, -4)
        assert res_g == want
        # the n = 0 instance of the first identity does not involve L'(-1)
        assert res_l.is_zero()


class TestDisplayedSums:
    """The binomial sums written term by term from their displays, against
    the builders, in every algebra mode whose generators they admit."""

    @staticmethod
    def signed(order, i):
        return (-1) ** i * comb(order, i)

    @staticmethod
    def total(mode, pieces):
        out = SmashElement.zero(mode)
        for piece in pieces:
            out = out + piece
        return out

    # (k, s, m): k - m and s stay >= -1, so kplus admits every generator
    @pytest.mark.parametrize("mode", [U, AK, APKP], ids=lambda m: m.value)
    @pytest.mark.parametrize("k, s, m", [(0, 0, 0), (1, -1, 2), (3, 0, 3), (2, 1, 1)])
    def test_omega(self, mode, k, s, m):
        # Omega^(m)_{k,s} = sum_i (-1)^i binom(m,i) L_{k-i} L_{s+i}
        want = self.total(mode, (
            smash_product(gen(L(k - i), mode), gen(L(s + i), mode)).scale(self.signed(m, i))
            for i in range(m + 1)))
        assert omega(k, s, m, mode) == want

    @pytest.mark.parametrize("mode", [U, AK, APKP], ids=lambda m: m.value)
    @pytest.mark.parametrize("k2, p, m", [(1, 0, 1), (5, -1, 2), (3, 1, 0), (7, 0, 3)])
    def test_gl_sum(self, mode, k2, p, m):
        # sum_i (-1)^i binom(m,i) G_{k-i} L_{p+i}, with k = k2/2
        want = self.total(mode, (
            smash_product(gen(G(half(k2 - 2 * i)), mode), gen(L(p + i), mode)).scale(self.signed(m, i))
            for i in range(m + 1)))
        assert gl_sum(half(k2), p, m, mode) == want

    @pytest.mark.parametrize("mode", [AK, APKP], ids=lambda m: m.value)
    @pytest.mark.parametrize("a, s, order", [(2, -1, 2), (3, 0, 3), (4, -1, 4)])
    def test_a_l_chain(self, mode, a, s, order):
        # sum_i (-1)^i binom(order,i) t^{a-i} (x) L_{s+i}
        want = self.total(mode, (term(a - i, 0, [L(s + i)], mode, self.signed(order, i))
                                 for i in range(order + 1)))
        assert a_l_chain(a, s, order, mode) == want

    @pytest.mark.parametrize("mode", [AK, APKP], ids=lambda m: m.value)
    @pytest.mark.parametrize("a, p2, order", [(3, 1, 3), (4, -1, 2), (5, 3, 4)])
    def test_a_g_chain(self, mode, a, p2, order):
        # sum_i (-1)^i binom(order,i) t^{a-i} (x) G_{p+i}, with p = p2/2
        want = self.total(mode, (term(a - i, 0, [G(half(p2 + 2 * i))], mode, self.signed(order, i))
                                 for i in range(order + 1)))
        assert a_g_chain(a, p2, order, mode) == want

    @pytest.mark.parametrize("mode", [AK, APKP], ids=lambda m: m.value)
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_l_prime(self, mode, n):
        # sum_{i=0}^{n+1} (-1)^{i+1} binom(n+1,i) t^{n-i+1} (x) L_{i-1}
        #   + (n+1)/2 sum_{i=0}^{n} (-1)^i binom(n,i) t^{n-i} xi (x) G_{i-1/2}
        first = self.total(mode, (term(n - i + 1, 0, [L(i - 1)], mode, -self.signed(n + 1, i))
                                  for i in range(n + 2)))
        second = self.total(mode, (term(n - i, 1, [G(half(2 * i - 1))], mode, self.signed(n, i))
                                   for i in range(n + 1)))
        assert l_prime(n, mode) == first + second.scale(Fraction(n + 1, 2))

    @pytest.mark.parametrize("mode", [AK, APKP], ids=lambda m: m.value)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_g_prime(self, mode, n):
        # sum_{i=0}^{n} (-1)^i binom(n,i) (t^{n-i} (x) G_{i-1/2} - 2 t^{n-i} xi (x) L_{i-1})
        want = self.total(mode, (
            (term(n - i, 0, [G(half(2 * i - 1))], mode)
             - term(n - i, 1, [L(i - 1)], mode, 2)).scale(self.signed(n, i))
            for i in range(n + 1)))
        assert g_prime(n, mode) == want

    @pytest.mark.parametrize("mode", [AK, APKP], ids=lambda m: m.value)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_g_reconstruction(self, mode, n):
        # sum_{k=0}^n (-1)^k binom(n,k) t^{n-k} (G'_{k-1/2} - 2 xi L'_{k-1}) - G_{n-1/2}
        xi = SmashElement.amon(0, 1, mode)
        lhs = self.total(mode, (
            smash_product(SmashElement.amon(n - k, 0, mode),
                      g_prime(k, mode) - smash_product(xi, l_prime(k - 1, mode)).scale(2),
                      ).scale(self.signed(n, k))
            for k in range(n + 1)))
        assert verify_reconstruction(n, mode=mode)[1] == lhs - gen(G(half(2 * n - 1)), mode)


class TestCentralizerSmall:
    def test_brackets_with_a(self):
        for n in range(0, 4):
            lp = l_prime(n, AK)
            for k in range(-3, 4):
                for eps in (0, 1):
                    assert smash_bracket(lp, SmashElement.amon(k, eps, AK)).is_zero()

    def test_brackets_with_g_minus_half(self):
        gm = gen(G(half(-1)), AK)
        for n in range(-1, 4):
            assert smash_bracket(gm, l_prime(n, AK)).is_zero()
        for n in range(0, 4):
            assert smash_bracket(gm, g_prime(n, AK)).is_zero()

    def test_g_prime_a_bracket_needs_positive_index(self):
        # G'(-1/2) does not centralize the coefficient algebra
        r = smash_bracket(g_prime(0, AK), SmashElement.amon(2, 0, AK))
        assert not r.is_zero()


class TestPsiTwistTable:
    def test_ll(self):
        for m in range(0, 4):
            for n in range(0, 4):
                got = smash_bracket(l_prime(m, AK), l_prime(n, AK))
                assert got == l_prime(m + n, AK).scale(n - m), (m, n)

    def test_lg(self):
        for m in range(0, 4):
            for n in range(0, 3):
                got = smash_bracket(l_prime(m, AK), g_prime(n + 1, AK))
                want = g_prime(m + n + 1, AK).scale(Scalar.of(Fraction(2 * n + 1 - m, 2)))
                assert got == want, (m, n)

    def test_gg(self):
        for n1 in range(0, 3):
            for n2 in range(0, 3):
                got = smash_bracket(g_prime(n1 + 1, AK), g_prime(n2 + 1, AK))
                assert got == l_prime(n1 + n2 + 1, AK).scale(2), (n1, n2)


small_gen = st.one_of(
    st.integers(-2, 2).map(L),
    st.integers(-2, 1).map(lambda n: G(half(2 * n + 1))),
)


@st.composite
def degree_one_elements(draw, mode=AK):
    n = draw(st.integers(1, 2))
    out = SmashElement.zero(mode)
    for _ in range(n):
        k = draw(st.integers(-2, 2))
        eps = draw(st.integers(0, 1))
        g = draw(small_gen)
        c = draw(st.integers(-3, 3))
        out = out + term(k, eps, [g], mode, c)
    return out


@given(degree_one_elements(), degree_one_elements(), degree_one_elements())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_product_is_associative(x, y, z):
    assert smash_product(smash_product(x, y), z) == smash_product(x, smash_product(y, z))


@given(small_gen, small_gen, small_gen, st.integers(-2, 2), st.integers(0, 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_graded_jacobi_on_smash(a, b, c, k, eps):
    x = term(k, eps, [a], AK)
    y = gen(b, AK)
    z = gen(c, AK)
    px = (eps + a.parity) % 2
    lhs = smash_bracket(x, smash_bracket(y, z))
    rhs = smash_bracket(smash_bracket(x, y), z)
    inner = smash_bracket(y, smash_bracket(x, z))
    rhs = rhs - inner if (px and b.parity) else rhs + inner
    assert lhs == rhs


def test_rendering():
    e = term(2, 1, [G(half(-1)), L(3)], AK)
    assert e.render() == "t^2*xi (x) G(-1/2)L(3)"
    assert term(0, 0, [], AK).render() == "1 (x) 1"


def reference_product(x, y):
    """The smash product before the one-pass table, kept as an oracle: the
    product of two A-monomials is the monomial of the summed degree, or 0
    when both carry xi."""
    x._check_mode(y)
    wc = x.mode.has_center
    out = {}
    for (ax, px), cx in x.terms.items():
        for (ay, py), cy in y.terms.items():
            base = cx * cy
            for (amid, pmid), c1 in _pbw_past_amon(px, ay):
                if ax.eps and amid.eps:
                    continue
                afull = amid.shifted(ax.degree)
                for pout, c2 in _pbw_mul(pmid, py, wc):
                    accumulate(out, (afull, pout), base * (c1 * c2))
    return SmashElement(out, x.mode)


def reference_bracket(x, y):
    """x y - (-1)^{|x||y|} y x from two reference products."""
    xy, yx = reference_product(x, y), reference_product(y, x)
    return xy + yx if x.parity() and y.parity() else xy - yx


def typed(e):
    """The term table of ``e`` with each coefficient's type, and its mode."""
    return e.mode, {key: (type(c), c) for key, c in e.terms.items()}


FRACTIONS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
SCALARS = (LAMBDA, -LAMBDA, LAMBDA + Fraction(1, 2), LAMBDA * LAMBDA * Fraction(1, 3),
           LAMBDA * B - 2, 1 - LAMBDA)


def random_element(rng, mode, coeffs, parity):
    """A seeded element of ``mode`` with 1 to 3 terms of PBW degree <= 2
    and the given parity, each coefficient drawn from ``coeffs``."""
    low = -1 if mode is APKP else -2
    gens = [L(n) for n in range(low, 3)] + [G(half(d)) for d in range(2 * low + 1, 5, 2)]
    if mode.has_center:
        gens.append(C)
    size, terms = rng.randint(1, 3), {}
    while len(terms) < size:
        if mode.has_center:
            a = A_ONE
        else:
            a = AMonomial(rng.randint(0 if mode is APKP else -2, 2), rng.randint(0, 1))
        mono = sorted(rng.sample(gens, rng.randint(0, 2)), key=lambda g: g.sort_key())
        if (a.eps + sum(g.parity for g in mono)) % 2 == parity:
            terms[(a, tuple(mono))] = rng.choice(coeffs)
    return SmashElement(terms, mode)


def corpus():
    """Seeded pairs (x, y) in every mode, with Fraction and with Scalar
    coefficients in l and b."""
    rng = random.Random(3601)
    pairs = []
    for mode in (U, AK, APKP):
        for kind, coeffs in (("fraction", FRACTIONS), ("scalar", SCALARS)):
            for i in range(12):
                x = random_element(rng, mode, coeffs, rng.randint(0, 1))
                y = random_element(rng, mode, coeffs, rng.randint(0, 1))
                pairs.append(pytest.param(x, y, id=f"{mode.value}-{kind}-{i}"))
    return pairs


def psi_pairs(mode):
    """Every pair of the primed family L'(0..3), G'(1/2..5/2) in ``mode``."""
    family = [(f"L'({n})", l_prime(n, mode)) for n in range(4)]
    family += [(f"G'({2 * n - 1}/2)", g_prime(n, mode)) for n in range(1, 4)]
    return [pytest.param(x, y, id=f"{mode.value}-{nx}-{ny}")
            for nx, x in family for ny, y in family]


PAIRS = corpus() + psi_pairs(AK) + psi_pairs(APKP)


# products and brackets that cancel to zero: xi xi = 0, the center, and
# the centralizer of A and of G(-1/2)
ZERO_PRODUCTS = [
    (SmashElement.amon(0, 1, AK), SmashElement.amon(0, 1, AK)),
    (SmashElement.amon(1, 1, APKP), term(0, 1, [L(0)], APKP, LAMBDA)),
]
ZERO_BRACKETS = [
    (gen(C), gen(L(1)).scale(LAMBDA)),
    (l_prime(2, AK), SmashElement.amon(-1, 1, AK)),
    (l_prime(1, APKP).scale(LAMBDA), SmashElement.amon(2, 0, APKP)),
    (gen(G(half(-1)), APKP), g_prime(2, APKP).scale(Fraction(1, 2))),
]


class TestAgainstReferenceProduct:
    @pytest.mark.parametrize("x, y", PAIRS)
    def test_product(self, x, y):
        assert typed(smash_product(x, y)) == typed(reference_product(x, y))

    @pytest.mark.parametrize("x, y", PAIRS)
    def test_bracket(self, x, y):
        assert typed(smash_bracket(x, y)) == typed(reference_bracket(x, y))

    @pytest.mark.parametrize("x, y", ZERO_PRODUCTS)
    def test_product_cancelling_to_zero(self, x, y):
        assert smash_product(x, y) == reference_product(x, y) == SmashElement.zero(x.mode)

    @pytest.mark.parametrize("x, y", ZERO_BRACKETS)
    def test_bracket_cancelling_to_zero(self, x, y):
        got = smash_bracket(x, y)
        assert got == reference_bracket(x, y) == SmashElement.zero(x.mode)
        assert got.terms == {}

    def test_corpus_reaches_every_kind_of_term(self):
        # the corpus has odd-odd pairs, Scalar outputs and products with
        # more than one term, in every mode
        for mode in (U, AK, APKP):
            pairs = [p.values for p in corpus() if p.values[0].mode is mode]
            assert any(x.parity() and y.parity() for x, y in pairs)
            outs = [smash_product(x, y) for x, y in pairs]
            assert any(isinstance(c, Scalar) for e in outs for c in e.terms.values())
            assert any(isinstance(c, Fraction) for e in outs for c in e.terms.values())
            assert any(len(e.terms) > 3 for e in outs)


@pytest.mark.parametrize("cls", [AMonomial, BasisKey])
def test_amonomial_product_is_the_degree_rule(cls):
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            for e1 in (0, 1):
                for e2 in (0, 1):
                    a, b = AMonomial(k1, e1), cls(k2, e2)
                    got = a.times(b)
                    if e1 and e2:
                        assert got is None
                    else:
                        assert got == b.shifted(a.degree)
                        assert type(got) is cls


@pytest.mark.parametrize("call", [
    lambda: omega(0, 0, -1),
    lambda: gl_sum(HalfInt(1), 0, -1),
    lambda: a_l_chain(0, 0, -2, AK),
    lambda: a_g_chain(0, 1, -1, AK),
], ids=["omega", "gl_sum", "a_l_chain", "a_g_chain"])
def test_negative_difference_order_raises(call):
    # an empty finite difference is the zero element, which would pass for
    # an identity: every caller of alternating_sum refuses it
    with pytest.raises(AlgebraError, match="finite-difference order must be non-negative, got -"):
        call()


class TestAdmissionGuardsEveryProduct:
    @pytest.mark.parametrize("mode, extra", [(APKP, L(-2)), (AK, C)], ids=["kplus", "k"])
    def test_inadmissible_product_raises(self, monkeypatch, fresh_tables, mode, extra):
        # a PBW swap rule whose [L(1), L(-1)] also emits a generator that
        # the mode does not admit: the product it builds must be refused
        original = enveloping.bracket_basis

        def mutant(x, y, with_center):
            out = original(x, y, with_center)
            return out + ((extra, 1),) if (x, y) == (L(1), L(-1)) else out

        monkeypatch.setattr(enveloping, "bracket_basis", mutant)
        message = re.escape(f"generator {extra.render()} not admissible in mode {mode.value}")
        for _ in range(2):
            with pytest.raises(AlgebraError, match=message):
                smash_product(gen(L(1), mode), gen(L(-1), mode))
            with pytest.raises(AlgebraError, match=message):
                smash_bracket(gen(L(1), mode), gen(L(-1), mode))

    @pytest.mark.parametrize("terms, mode", [
        ({(A_ONE, (L(-2),)): 1}, APKP),
        ({(A_ONE, (C, L(0))): 1}, AK),
        ({(A_ONE, (L(1), L(0))): 1}, AK),
        ({(A_ONE, (G(half(1)), G(half(1)))): 1}, U),
        ({(AMonomial(1, 0), (L(0),)): 1}, U),
        ({(AMonomial(-1, 0), (L(0),)): 1}, APKP),
    ], ids=["not-admitted", "center", "order", "odd-square", "a-part", "negative-a"])
    def test_inadmissible_element_raises_every_time(self, terms, mode):
        for _ in range(2):
            with pytest.raises(AlgebraError):
                SmashElement(terms, mode)
