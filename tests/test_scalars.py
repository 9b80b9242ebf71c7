"""Exact scalar arithmetic: canonical forms, field axioms, substitution."""

import hashlib
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscheck.algebra import AlgebraMode, L, LieElement
from nscheck.analysis import edge_generators, window_keys
from nscheck.modules import Window, module_axiom_residual, parse_module_descriptor
from nscheck.scalars import (
    B,
    LAMBDA,
    ONE,
    PoleError,
    Scalar,
    ScalarError,
    ZERO,
    _ONE_TERMS,
    _add_scaled,
    _divexact,
    _mul,
    _p_gcd,
    _p_render,
    _terms,
)

# a polynomial is a term table {(deg l, deg b): coefficient}; _terms cleans
# one as the constructor Scalar(num, den) does: zeros dropped, the
# coefficient rule applied


def P(terms):
    return _terms({e: Fraction(c) for e, c in terms.items()})


ONE_POLY = {(0, 0): 1}


def is_constant(p: dict) -> bool:
    return all(e == (0, 0) for e in p)


class TestNormalize:
    def test_self_cancellation(self):
        s = Scalar(P({(1, 0): 1, (0, 0): 1}), P({(1, 0): 1, (0, 0): 1}))
        assert s == ONE

    def test_content_removal(self):
        s = Scalar(P({(1, 0): 2, (0, 1): 2}), {(0, 0): 2})
        assert s == LAMBDA + B

    def test_polynomial_gcd(self):
        # (l^2 - b^2) / (l - b) -> l + b; cofactor checked by independent
        # multiplication, not by the gcd path under test
        num = P({(2, 0): 1, (0, 2): -1})
        den = P({(1, 0): 1, (0, 1): -1})
        s = Scalar(num, den)
        assert s == LAMBDA + B
        assert s.den == ONE_POLY
        assert _mul(s.num, den) == num

    def test_idempotent(self):
        num = P({(2, 0): 2, (1, 1): 2})
        den = P({(1, 0): 4})
        s = Scalar(num, den)
        again = Scalar(s.num, s.den)
        assert s == again

    def test_zero_denominator(self):
        with pytest.raises(ScalarError):
            Scalar(ONE_POLY, {})

    def test_monic_denominator(self):
        s = Scalar(P({(1, 0): 1}), P({(1, 0): 2, (0, 0): 2}))
        assert s.den == P({(1, 0): 1, (0, 0): 1})
        assert s.num == P({(1, 0): Fraction(1, 2)})


class TestArith:
    def test_additive_inverse(self):
        assert (LAMBDA + B) - (LAMBDA + B) == ZERO

    def test_cocycle_coefficient_at_two(self):
        # (m^3 - m)/12 at m = 2
        assert Scalar.of(Fraction(1, 12)) * 6 == Scalar.of(Fraction(1, 2))

    def test_multiplicative_inverse(self):
        s = LAMBDA + 2
        assert s * (ONE / s) == ONE

    def test_division_by_zero(self):
        with pytest.raises(ScalarError):
            ONE / ZERO


class TestSubstitute:
    def test_fold_literals(self):
        # l + k + b(n+1) with k = 2, n = 1 at l = b = 0
        s = LAMBDA + 2 + B * 2
        assert s.substitute(0, 0) == Scalar.of(2)

    def test_direct_evaluation(self):
        assert (LAMBDA + B).substitute(Fraction(1, 3), Fraction(1, 4)) == Scalar.of(
            Fraction(7, 12)
        )

    def test_pole_detection(self):
        with pytest.raises(PoleError) as err:
            (ONE / LAMBDA).substitute(0, None)
        assert err.value.vanishing == "l"

    def test_partial_substitution(self):
        s = (LAMBDA + B).substitute(l_val=1)
        assert s == B + 1
        assert not s.is_numeric()


def test_rendering():
    s = (2 * LAMBDA + 4 * B - 1) / (LAMBDA + 1)
    assert s.render() == "(2*l + 4*b - 1)/(l + 1)"
    assert (ONE / (LAMBDA + 1)).render() == "1/(l + 1)"
    assert Scalar.of(Fraction(-3, 7)).render() == "-3/7"
    assert (LAMBDA * LAMBDA + LAMBDA * B + B).render() == "l^2 + l*b + b"
    s = (Fraction(-4, 25) * LAMBDA * LAMBDA * B * B - Fraction(4, 15)) / (LAMBDA * LAMBDA * B)
    assert s.render() == "(-4/25*l^2*b^2 - 4/15)/(l^2*b)"


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[e] = draw(small_fractions)
    return _terms(terms)


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys().filter(bool))
    return Scalar(num, den)


@given(polys(), polys().filter(bool), polys().filter(bool))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_canonical_form_kills_common_factors(p, q, r):
    assert Scalar(_mul(p, r), _mul(q, r)) == Scalar(p, q)


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_canonical_equality_iff_cross_multiplication(a, c):
    agree = _mul(a.num, c.den) == _mul(c.num, a.den)
    assert (a == c) == agree


@given(scalars(), scalars(), scalars())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_ring_axioms(a, c, d):
    assert (a + c) + d == a + (c + d)
    assert (a * c) * d == a * (c * d)
    assert a * (c + d) == a * c + a * d
    assert a + c == c + a


@given(scalars(), scalars())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_division_inverts_multiplication(a, c):
    if not c.is_zero():
        assert (a / c) * c == a


@given(scalars(), scalars(), st.sampled_from([operator.add, operator.sub, operator.mul]),
       small_fractions, small_fractions)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_substitute_commutes_with_arith(a, c, op, lv, bv):
    try:
        lhs = op(a, c).substitute(lv, bv)
        asub, csub = a.substitute(lv, bv), c.substitute(lv, bv)
    except PoleError:
        return
    assert lhs == op(asub, csub)


def test_numeric_hash_agrees_with_rational_equality():
    assert Scalar.of(1) == 1
    assert len({Scalar.of(1), 1}) == 1
    assert Scalar.of(Fraction(1, 2)) in {Fraction(1, 2)}
    assert hash(Scalar.of(Fraction(-3, 7))) == hash(Fraction(-3, 7))
    assert {0: "zero"}[ZERO] == "zero"


def test_term_tables_are_read_only():
    # every Scalar over 1 shares one denominator table: a write through any
    # Scalar's view raises, and the arithmetic after the attempts is unchanged
    rational = Scalar(P({(1, 0): 1, (0, 0): 1}), P({(0, 1): 1, (0, 0): 2}))

    def results():
        return [s.render() for s in (LAMBDA + 1, B * LAMBDA - 3, Scalar.of(2) / B,
                                     rational + ONE, rational * rational, ZERO + ONE)]

    before = results()
    for s in (Scalar.of(2), rational, LAMBDA, B, ZERO, ONE):
        for table in (s.num, s.den):
            with pytest.raises(TypeError):
                table[(0, 1)] = 1
            with pytest.raises(TypeError):
                del table[next(iter(table), (0, 0))]
            with pytest.raises(AttributeError):
                table.clear()
    assert results() == before == ["l + 1", "l*b - 3", "2/b", "(l + b + 3)/(b + 2)",
                                    "(l^2 + 2*l + 1)/(b^2 + 4*b + 4)", "1"]


def random_poly(rng):
    return _terms({(rng.randint(0, 2), rng.randint(0, 2)):
                   Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 3))})


def random_operand(rng):
    """Zero, one, a bare int or Fraction, or a numeric, polynomial or true
    rational-function Scalar."""
    kind = rng.randrange(7)
    q = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if kind == 0:
        return rng.choice([0, 1, -1, ZERO, ONE])
    if kind == 1:
        return rng.randint(-6, 6)
    if kind == 2:
        return q
    if kind == 3:
        return Scalar.of(q)
    if kind == 4:
        return Scalar(random_poly(rng), ONE_POLY)
    den = random_poly(rng)
    while is_constant(den):
        den = random_poly(rng)
    return Scalar(random_poly(rng), den)


def random_pairs(seed, count):
    """Operand pairs with at least one Scalar side."""
    rng = random.Random(seed)
    for _ in range(count):
        x, y = random_operand(rng), random_operand(rng)
        yield (x if isinstance(x, Scalar) or isinstance(y, Scalar) else Scalar.of(x)), y


ARITH = [operator.add, operator.sub, operator.mul, operator.truediv]


def general_formula(op, x, y):
    """The textbook numerator and denominator, reduced by the constructor."""
    x, y = Scalar.of(x), Scalar.of(y)
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if op is operator.add:
        return Scalar(_add_scaled(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2))
    if op is operator.sub:
        return Scalar(_add_scaled(_mul(n1, d2), _mul(n2, d1), -1), _mul(d1, d2))
    if op is operator.mul:
        return Scalar(_mul(n1, n2), _mul(d1, d2))
    return Scalar(_mul(n1, d2), _mul(d1, n2))


def test_shortcuts_agree_with_general_path():
    polynomial_pairs = 0  # two Scalars in l or b over the denominator 1
    for x, y in random_pairs("nscheck-scalar-paths", 600):
        polynomial_pairs += all(isinstance(s, Scalar) and not s.is_numeric()
                                and s.den is _ONE_TERMS for s in (x, y))
        for op in ARITH:
            if op is operator.truediv and not y:
                with pytest.raises(ScalarError):
                    op(x, y)
                continue
            got = op(x, y)
            rebuilt = Scalar(got.num, got.den)
            where = (op.__name__, x, y, got)
            assert (got.num, got.den) == (rebuilt.num, rebuilt.den), where
            assert got == general_formula(op, x, y), where
            assert got.is_numeric() == (is_constant(got.num) and is_constant(got.den)), where
            assert hash(got) == hash(rebuilt), where
    assert polynomial_pairs >= 10


def to_sympy(text):
    """A rendered polynomial or Scalar as a sympy expression in l and b."""
    sympy = pytest.importorskip("sympy")
    l, b = sympy.symbols("l b")
    return sympy.sympify(text.replace("^", "**"), locals={"l": l, "b": b})


def test_canonical_form_matches_sympy_cancel():
    # numerator and denominator become sympy polynomials straight from their
    # terms, and only the rendering is parsed; every check is Poly arithmetic
    sympy = pytest.importorskip("sympy")
    l, b = sympy.symbols("l b")

    def poly(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.items()},
            l, b, domain="QQ")

    for x, y in random_pairs("nscheck-sympy-oracle", 100):
        for op in ARITH:
            if op is operator.truediv and not y:
                continue
            s = op(x, y)
            num, den = poly(s.num), poly(s.den)
            shown_num, shown_den = sympy.fraction(to_sympy(s.render()))
            assert (sympy.Poly(shown_num, l, b) * den
                    - sympy.Poly(shown_den, l, b) * num).is_zero, s
            reduced_num, reduced_den = num.cancel(den, include=True)
            if s.is_zero():
                assert reduced_num.is_zero and den == 1
                continue
            unit, rest = num.div(reduced_num)
            assert rest.is_zero and unit.is_ground and (den - unit * reduced_den).is_zero, s
            assert num.gcd(den).is_ground, s
            assert den.LC(order="grlex") == 1, s


# the coefficient rule: an integral coefficient is stored as an int, any
# other as a Fraction with denominator > 1; == cannot tell 1 from Fraction(1)


def obeys_rule(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def rule_breakers(s):
    """The stored coefficients of ``s`` (a Scalar or a term table) that break
    the coefficient rule, with their types."""
    polys = (s.num, s.den) if isinstance(s, Scalar) else (s,)
    return [(c, type(c)) for p in polys for c in p.values() if not obeys_rule(c)]


def test_coefficient_rule_on_seeded_operations():
    for x, y in random_pairs("nscheck-scalar-paths", 600):
        results = []
        for op in ARITH:
            if not (op is operator.truediv and not y):
                results.append(op(x, y))
        if x and not isinstance(y, Scalar):
            results.append(y / x)  # __rtruediv__ of an int or Fraction
        for s in list(results):
            for lv, bv in ((Fraction(1, 3), 2), (2, None), (None, Fraction(-1, 2))):
                try:
                    results.append(s.substitute(lv, bv))
                except PoleError:
                    pass
        for s in results:
            assert rule_breakers(s) == [], (x, y, s)


def test_coefficient_rule_on_every_division_path():
    p = LAMBDA + 2 * B
    q = (LAMBDA + 1) / (2 * B - 3)
    results = [
        p / 2, p / Fraction(2, 3), p / Scalar.of(4), p / q, q / p,  # Scalar / rational or Scalar
        1 / p, Fraction(3, 2) / q, 2 / Scalar.of(4),  # __rtruediv__
        Scalar({(1, 0): 2, (0, 0): 4}, {(0, 0): 2}),  # constant denominator
        Scalar({(1, 1): 3, (0, 2): 6}, {(1, 0): 3, (0, 1): 6}),  # gcd
        Scalar({(0, 1): 1}, {(1, 0): 2, (0, 0): 4}),  # monic only
        Scalar({(2, 0): 1, (0, 0): -1}, {(1, 0): 2, (0, 0): 2}),
    ]
    for s in results:
        assert rule_breakers(s) == [], s
    assert results[-3] == B and results[-1] == (LAMBDA - 1) / 2
    half = Fraction(1, 2)
    for f, g in (({}, {(1, 0): 2, (0, 0): 4}), ({(1, 0): half, (0, 0): half}, {(1, 0): 3, (0, 0): 3})):
        got = _p_gcd(f, g)
        assert got == {(1, 0): 1, (0, 0): 2 if not f else 1}
        assert all(obeys_rule(c) for c in got.values()), got


def test_divexact_takes_its_ring_explicitly():
    # l + 1 over 2: exact in Q[l, b], not in Z[l, b], although every
    # coefficient is an int
    half = Fraction(1, 2)
    assert _divexact({(1, 0): 1, (0, 0): 1}, {(0, 0): 2}, "Q") == {(1, 0): half, (0, 0): half}
    with pytest.raises(ScalarError):
        _divexact({(1, 0): 1, (0, 0): 1}, {(0, 0): 2}, "Z")
    assert _divexact({(1, 0): 2, (0, 0): 4}, {(0, 0): 2}, "Z") == {(1, 0): 1, (0, 0): 2}



# the gcd pin: a seeded corpus of pairs (f h, g h), each gcd checked by its
# defining properties and all of them pinned by one digest, so that any
# rewrite of the gcd must reproduce every result

GCD_FACTOR_DEGREES = {"const": (0, 0), "l": (2, 0), "b": (0, 2), "lb": (2, 2)}


def gcd_factor(rng, kind):
    """Zero, or a polynomial with Fraction coefficients of the given kind:
    constant, in l alone, in b alone, or in both."""
    if kind == "zero":
        return {}
    dl, db = GCD_FACTOR_DEGREES[kind]
    return _terms({(rng.randint(0, dl), rng.randint(0, db)):
                   Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4]), rng.randint(1, 3))
                   for _ in range(rng.randint(1, 3))})


def gcd_corpus(count=300):
    """(f h, g h, h): h a product of one or two nonzero factors, f and g
    any factors, zero and constants included."""
    rng = random.Random("nscheck-gcd-pin")
    kinds = list(GCD_FACTOR_DEGREES)
    corpus = []
    for _ in range(count):
        h = ONE_POLY
        for _ in range(rng.randint(1, 2)):
            h = _mul(h, gcd_factor(rng, rng.choice(kinds)))
        f, g = (gcd_factor(rng, rng.choice(kinds * 2 + ["zero"])) for _ in range(2))
        corpus.append((_mul(f, h), _mul(g, h), h))
    return corpus


GCD_PIN_SHA256 = "4991d871d24944b97107edf1b5712fa4549e5ce80859eb63af28d082f1e67b39"


def test_gcd_pin_on_seeded_corpus():
    rendered = []
    for fh, gh, h in gcd_corpus():
        got = _p_gcd(fh, gh)
        rendered.append(f"{_p_render(fh)} ; {_p_render(gh)} -> {_p_render(got)}")
        if not got:
            assert not fh and not gh
            continue
        assert got[max(got, key=lambda e: (e[0] + e[1], e[0]))] == 1, rendered[-1]
        assert all(obeys_rule(c) for c in got.values()), rendered[-1]
        for p in (fh, gh):
            assert _mul(_divexact(p, got, "Q"), got) == p, rendered[-1]
        if h:
            _divexact(got, h, "Q")
    digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
    assert digest == GCD_PIN_SHA256


def test_gcd_matches_sympy_up_to_a_unit():
    sympy = pytest.importorskip("sympy")
    for fh, gh, _ in gcd_corpus()[:100]:
        want = sympy.gcd(to_sympy(_p_render(fh)), to_sympy(_p_render(gh)))
        got = to_sympy(_p_render(_p_gcd(fh, gh)))
        if want == 0:
            assert got == 0, (fh, gh)
            continue
        unit = sympy.cancel(got / want)
        assert unit.is_Rational and unit != 0, (fh, gh, got, want)

def test_gamma_action_cache_obeys_the_coefficient_rule():
    mod = parse_module_descriptor("gamma(l,b)")
    gens = edge_generators(mod.algebra_mode, 3)
    keys = window_keys(mod, Window(-8, 8))
    for i, x in enumerate(gens):
        for y in gens[i:]:
            for key in keys:
                assert module_axiom_residual(x, y, key, mod).is_zero()
    assert mod._table
    for (gen, key), entry in mod._table.items():
        for _, c in entry[2] if entry else ():
            if isinstance(c, Scalar):
                assert rule_breakers(c) == [], (gen, key, c)
            else:
                assert obeys_rule(c), (gen, key, c)


@pytest.mark.parametrize("build", [
    lambda: Scalar.of(0.1),
    lambda: LAMBDA * 0.1,
    lambda: 0.1 * LAMBDA,
    lambda: LAMBDA + 0.1,
    lambda: LAMBDA / 0.5,
    lambda: Scalar({(0, 0): 0.1}, ONE_POLY),
    lambda: Scalar({(0.5, 0): 1}, ONE_POLY),
    lambda: LieElement.basis(L(1), AlgebraMode.KHAT).scale(0.3),
    lambda: LAMBDA.substitute(0.5, None),
], ids=["Scalar.of", "mul", "rmul", "add", "truediv", "Scalar", "exponent", "LieElement.basis",
        "substitute"])
def test_floats_never_enter_the_exact_field(build):
    with pytest.raises(ScalarError):
        build()
