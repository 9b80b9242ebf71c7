"""Exact arithmetic over Q and over the rational-function field Q(l, b).

A ``Scalar`` is a quotient of two polynomials in the formal parameters
``l`` and ``b`` with rational coefficients, kept in a canonical form so
that equality-to-zero is decidable by plain representation comparison.
A coefficient that involves neither parameter is kept as an int or a
Fraction instead (the coefficient rule below).

Canonical form of a Scalar:

* numerator and denominator share no polynomial factor (gcd removed),
* the denominator is monic with respect to the fixed term order,
* zero is ``0/1``, purely numeric values are ``c/1``; a denominator 1 is
  always the one shared ``ParamPoly``.

Arithmetic forms the textbook numerator and denominator and reduces them
with :func:`_canonicalize` (gcd, then monic), except in four cases whose
result is canonical by construction:

* rational scaling: ``x * c`` for an int, Fraction or numeric Scalar
  ``c`` (and ``x / c``, which is ``x * (1/c)``) scales the numerator and
  keeps the denominator; a nonzero constant keeps the pair coprime;
* sums over denominator one: the numerators add over the denominator 1,
  which is coprime to anything and monic;
* products over denominator one: two polynomials multiply to a polynomial,
  whose denominator 1 is again coprime to it and monic;
* adding a rational ``q`` to ``n/d`` gives ``(n + q d)/d``, because
  ``gcd(n + q d, d) = gcd(n, d) = 1``.

The term order is graded lexicographic with ``l`` before ``b``.

Coefficient rule: every stored polynomial coefficient is exact, and an
integral one is a plain ``int``; any other is a :class:`fractions.Fraction`
whose denominator is greater than 1.  The kernels and the constructors
normalise their results to this rule, so most arithmetic runs on machine
ints.  The cached exact tables follow it too, each entry normalised once by
:func:`_coefficient` on its way into the cache: the structure constants of
``algebra`` (``bracket_basis``, ``gen_act_amon``, ``amon_act_gen``) and the
PBW tables of ``enveloping`` (``_insert_gen``, ``_pbw_mul``,
``_pbw_past_amon``).  So do the elements (``algebra.Combination``: Lie, A,
smash and module elements), whose constructor turns a numeric Scalar into
its value by :func:`_rational` and keeps a Scalar only when it involves l
or b, and so does the basis-level module action
(``modules.GammaModule.gen_action``), with its edge records and the
scalings of an intertwiner.  Every division of a coefficient goes through
``Fraction`` (``1 / Fraction(c)`` here, ``Fraction(p, q)`` in the other
layers, which write no ``/``), so ``int / int`` never yields a float.
Operands must be ints, Fractions or Scalars: a float raises
:class:`ScalarError`, and no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

# Exponent pair: (degree in l, degree in b).
Expt = tuple[int, int]


class ScalarError(ArithmeticError):
    """Division by the zero polynomial or zero Scalar, or an operand that
    is not an exact rational (a float, say)."""


class PoleError(ScalarError):
    """A substitution annihilated a denominator.

    Carries the rendered vanishing polynomial in :attr:`vanishing`.
    """

    def __init__(self, vanishing: str):
        super().__init__(f"substitution hits a pole: denominator {vanishing} vanishes")
        self.vanishing = vanishing


def _order_key(e: Expt) -> tuple[int, int]:
    # graded lex, l before b: compare total degree, then degree in l
    return (e[0] + e[1], e[0])


def _sorted_exponents(terms: Mapping[Expt, int | Fraction]) -> list[Expt]:
    return sorted(terms, key=_order_key, reverse=True)


def _coefficient(x) -> int | Fraction:
    """An int or Fraction operand under the coefficient rule (int when
    integral); ScalarError for anything else, a float in particular."""
    if isinstance(x, (int, Fraction)):
        # int.numerator is a plain int, also for a bool
        return x.numerator if x.denominator == 1 else x
    raise ScalarError(f"{x!r} is not an exact rational (int or Fraction)")


# polynomial kernels, shared by Q[l, b] and the integer gcd machinery below;
# each result obeys the coefficient rule of the module docstring


def _add_scaled(f: dict, g: dict, c=1, shift: Expt = (0, 0)) -> dict:
    """f + c * l^shift[0] b^shift[1] * g, dropping terms that sum to zero."""
    out = dict(f)
    scaled = c != 1
    sl, sb = shift
    for (a, b), k in g.items():
        e = (a + sl, b + sb)
        if scaled:
            k = c * k
        cur = out.get(e)
        s = k if cur is None else cur + k
        if s:
            out[e] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        else:
            out.pop(e, None)
    return out


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e, c in f.items():
        out = _add_scaled(out, g, c, e)
    return out


def _p_neg(f: dict) -> dict:
    return {e: -c for e, c in f.items()}


def _p_scale(f: dict, c: int | Fraction) -> dict:
    if not c:
        return {}
    out = {}
    for e, k in f.items():
        k *= c
        out[e] = k.numerator if type(k) is Fraction and k.denominator == 1 else k
    return out


def _p_leading(f: dict) -> tuple[Expt, int | Fraction]:
    e = max(f, key=_order_key)
    return e, f[e]


def _divexact(f: dict, g: dict, ring: str) -> dict:
    """Exact division f / g in ``ring``: "Z" for Z[l, b], where every
    quotient coefficient must be an integer, or "Q" for Q[l, b].  Raises
    unless ``g`` divides ``f`` in that ring."""
    if not g:
        raise ScalarError("division by zero polynomial")
    q: dict = {}
    r = dict(f)
    ge, gc = _p_leading(g)
    while r:
        re, rc = _p_leading(r)
        de = (re[0] - ge[0], re[1] - ge[1])
        if ring == "Z":
            qc, rem = divmod(rc, gc)
        else:
            qc, rem = _coefficient(Fraction(rc) / gc), 0
        if de[0] < 0 or de[1] < 0 or rem:
            raise ScalarError("inexact polynomial division")
        q[de] = qc
        r = _add_scaled(r, g, -qc, de)
    return q


def _degree(f: dict, v: int) -> int:
    """Degree of f in the variable v (0 for l, 1 for b); -1 for zero."""
    return max((e[v] for e in f), default=-1)


# gcd: cleared to integer coefficients (Gauss's lemma), then one primitive
# pseudo-remainder sequence (Brown, J. ACM 1971) in a main variable v.  With
# v = l the coefficients lie in Z[b], and their gcd, the content, comes from
# the same sequence with v = b; with v = b they are integers, units of Q that
# _ip_normalize divides out.  Plain int arithmetic keeps tiny inputs fast.


def _ip_normalize(f: dict) -> dict:
    """Divide by the integer content; make the leading coefficient positive."""
    if not f:
        return {}
    c = gcd(*f.values())
    if f[max(f, key=_order_key)] < 0:
        c = -c
    return {e: k // c for e, k in f.items()}


def _ip_coefficient(f: dict, v: int, d: int) -> dict:
    """The coefficient of the variable v to the power d in f."""
    return {(0, e[1]) if v == 0 else (e[0], 0): c for e, c in f.items() if e[v] == d}


def _ip_split(f: dict, v: int) -> tuple[dict, dict]:
    """(content, primitive part) of f in the main variable v: for v = l
    the content is a primitive polynomial in b, zero for f = 0; for v = b
    it is 1."""
    cont = _ONE_TERMS
    if v == 0:
        cont = {}
        for d in sorted({e[0] for e in f}):
            cont = _ip_gcd(cont, _ip_coefficient(f, 0, d), 1)
            if cont == _ONE_TERMS:
                break
    if f and cont != _ONE_TERMS:
        f = _divexact(f, cont, "Z")
    return cont, _ip_normalize(f)


def _ip_prem(f: dict, g: dict, v: int) -> dict:
    """Pseudo-remainder of f by g in the main variable v."""
    dg = _degree(g, v)
    lcg = _ip_coefficient(g, v, dg)
    while (df := _degree(f, v)) >= dg:
        shift = (df - dg, 0) if v == 0 else (0, df - dg)
        f = _add_scaled(_mul(lcg, f), _mul(_ip_coefficient(f, v, df), g), -1, shift)
    return f


def _ip_gcd(f: dict, g: dict, v: int = 0) -> dict:
    """Gcd in Q[l, b] of integer polynomials f and g, which lie in Z[b] for
    v = b: the gcd of their contents times the last nonzero remainder of the
    primitive pseudo-remainder sequence in v, as a primitive integer
    polynomial with positive leading coefficient.  gcd(f, 0) is the
    primitive part of f, and gcd(0, 0) is 0."""
    (cf, f), (cg, g) = _ip_split(f, v), _ip_split(g, v)
    cont = _ip_gcd(cf, cg, 1) if v == 0 else _ONE_TERMS
    if _degree(f, v) < _degree(g, v):
        f, g = g, f
    while g:
        f, g = g, _ip_split(_ip_prem(f, g, v), v)[1]
    return f if cont == _ONE_TERMS else _ip_normalize(_mul(cont, f))


# Kronecker substitution (Kronecker 1882; Harvey, J. Symbolic Comput. 2009):
# a polynomial p in Z[l, b] is carried as the one int E(p) = p(X^M, X) at
# the radix (K, M), X = 2^K.  E is a ring homomorphism, so sums and products
# of encodings encode the sums and products of the polynomials, and E is the
# identity on a constant.  It is injective on the p with every |coefficient|
# < X/2 and deg_b p < M, whose balanced base-X digits (each in [-X/2, X/2))
# are their coefficients: :func:`_decode` reads exactly those back.


def _encode(f: dict, radix: tuple[int, int]) -> int:
    """E(f) for f in Z[l, b] at ``radix``; see the comment above."""
    k, m = radix
    return sum(c << k * (m * i + j) for (i, j), c in f.items())


def _decode(n: int, radix: tuple[int, int]) -> dict:
    """The polynomial p with E(p) = n at ``radix``, when p lies in the
    encoding: its coefficients are the balanced base-X digits of n."""
    k, m = radix
    half = 1 << (k - 1)
    mask, out, i = (half << 1) - 1, {}, 0
    while n:
        d = ((n + half) & mask) - half
        if d:
            out[divmod(i, m)] = d
        n = (n - d) >> k
        i += 1
    return out


def _clear_denominators(f: dict) -> dict:
    scale = lcm(*(c.denominator for c in f.values()))
    return {e: int(c * scale) for e, c in f.items()}


def _p_gcd(f: dict, g: dict) -> dict:
    """Monic gcd in Q[l, b]; gcd(0, 0) is 0."""
    got = _ip_gcd(_clear_denominators(f), _clear_denominators(g))
    lead = _p_leading(got)[1] if got else 1
    return got if lead == 1 else _p_scale(got, 1 / Fraction(lead))


def _render_monomial(e: Expt) -> str:
    parts = []
    for name, d in (("l", e[0]), ("b", e[1])):
        if d == 1:
            parts.append(name)
        elif d > 1:
            parts.append(f"{name}^{d}")
    return "*".join(parts)


def _p_render(f: dict) -> str:
    if not f:
        return "0"
    pieces: list[str] = []
    for e in _sorted_exponents(f):
        c = f[e]
        mono = _render_monomial(e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(pieces)


class ParamPoly:
    """Polynomial in the formal parameters l and b over Q.

    Immutable; ``terms`` maps exponent pairs (deg l, deg b) to nonzero
    coefficients under the coefficient rule: an int when integral, else a
    Fraction with denominator > 1.  The constructor validates and
    normalises outside input (a float raises ScalarError); the kernels hand
    their already-clean dicts to :func:`_poly`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expt, Fraction | int] | None = None):
        clean: dict = {}
        if terms:
            for e, c in terms.items():
                c = _coefficient(c)
                if c:
                    clean[(int(e[0]), int(e[1]))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("ParamPoly is immutable")

    @staticmethod
    def variable(name: str) -> "ParamPoly":
        if name == "l":
            return ParamPoly({(1, 0): 1})
        if name == "b":
            return ParamPoly({(0, 1): 1})
        raise ValueError(f"unknown parameter {name!r}; only l and b exist")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        return _poly(_add_scaled(self.terms, other.terms))

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return _poly(_add_scaled(self.terms, other.terms, -1))

    def __neg__(self) -> "ParamPoly":
        return _poly(_p_neg(self.terms))

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        return _poly(_mul(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, l_val: int | Fraction | None, b_val: int | Fraction | None) -> "ParamPoly":
        l_val = None if l_val is None else _coefficient(l_val)
        b_val = None if b_val is None else _coefficient(b_val)
        out: dict = {}
        for (dl, db), c in self.terms.items():
            if l_val is not None:
                c *= l_val ** dl
                dl = 0
            if b_val is not None:
                c *= b_val ** db
                db = 0
            out = _add_scaled(out, _ONE_TERMS, c, (dl, db))
        return _poly(out)

    def render(self) -> str:
        return _p_render(self.terms)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


def _poly(terms: dict) -> ParamPoly:
    """ParamPoly over a dict that is already clean: int exponent pairs,
    nonzero coefficients under the coefficient rule."""
    p = object.__new__(ParamPoly)
    object.__setattr__(p, "terms", terms)
    return p


_ONE_TERMS = {(0, 0): 1}
_ONE_POLY = _poly(_ONE_TERMS)


def _rational(x):
    """The value of a rational operand (int, Fraction or numeric Scalar)
    under the coefficient rule; None for a Scalar that involves l or b.
    Any other operand, a float in particular, raises ScalarError."""
    if isinstance(x, Scalar):
        t = x.num.terms
        one = x.den is _ONE_POLY or x.den.terms == _ONE_TERMS
        if one and (not t or (len(t) == 1 and (0, 0) in t)):
            return t.get((0, 0), 0)
        return None
    return _coefficient(x)


class Scalar:
    """Canonical element of Q(l, b); see the module docstring."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly):
        n, d = _canonicalize(num.terms, den.terms)
        object.__setattr__(self, "num", _poly(n))
        object.__setattr__(self, "den", _ONE_POLY if d == _ONE_TERMS else _poly(d))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def of(value) -> "Scalar":
        """Scalar from an int, Fraction or Scalar; a float raises ScalarError."""
        if isinstance(value, Scalar):
            return value
        value = _coefficient(value)
        return _scalar({(0, 0): value} if value else {}, _ONE_POLY)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_numeric(self) -> bool:
        return _rational(self) is not None

    def numeric_value(self) -> Fraction:
        q = _rational(self)
        if q is None:
            raise ScalarError(f"{self.render()} is not numeric")
        return Fraction(q)

    def __add__(self, other) -> "Scalar":
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        return _sum(self, other, -1)

    def __rsub__(self, other) -> "Scalar":
        return _sum(-self, other, 1)

    def __neg__(self) -> "Scalar":
        return _scalar(_p_neg(self.num.terms), self.den)

    def __mul__(self, other) -> "Scalar":
        x, q = self, _rational(other)
        if q is None:
            x, q = other, _rational(self)
            if q is None:
                if self.den is _ONE_POLY and other.den is _ONE_POLY:
                    return _scalar(_mul(self.num.terms, other.num.terms), _ONE_POLY)
                return Scalar(self.num * other.num, self.den * other.den)
        # rational scaling: a nonzero constant keeps num and den coprime
        if not q:
            return ZERO
        return x if q == 1 else _scalar(_p_scale(x.num.terms, q), x.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        q = _rational(other)
        if q is not None:
            if not q:
                raise ScalarError("division by zero Scalar")
            return _scalar(_p_scale(self.num.terms, 1 / Fraction(q)), self.den)
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.num.terms == other.num.terms and self.den.terms == other.den.terms
        if isinstance(other, (int, Fraction)):
            return _rational(self) == other
        return False

    def __hash__(self):
        # a numeric Scalar hashes as the rational it equals
        q = _rational(self)
        return hash((self.num, self.den)) if q is None else hash(q)

    def substitute(self, l_val=None, b_val=None) -> "Scalar":
        den = self.den.substitute(l_val, b_val)
        if den.is_zero():
            raise PoleError(self.den.render())
        return Scalar(self.num.substitute(l_val, b_val), den)

    def render(self) -> str:
        ns = self.num.render()
        if self.den == _ONE_POLY:
            return ns
        ds = self.den.render()
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        if len(self.den.terms) > 1 or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def render_coeff(self) -> str:
        """Rendering for use as a multiplicative coefficient: wrapped in
        parentheses when it has additive structure or a symbolic quotient."""
        s = self.render()
        if ("+" in s[1:]) or ("-" in s[1:]) or ("/" in s and not self.is_numeric()):
            return f"({s})"
        return s

    def __repr__(self):
        return f"Scalar({self.render()})"


def _scalar(num: dict, den: ParamPoly) -> Scalar:
    """Scalar over a pair that is already canonical."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "num", _poly(num))
    object.__setattr__(s, "den", den)
    return s


def _sum(x: Scalar, y, sign: int) -> Scalar:
    """x + sign * y for sign = 1 or -1, through the shortcuts where they apply."""
    q = _rational(y)
    if q is not None:
        # (n + q d)/d: gcd(n + q d, d) = gcd(n, d) = 1
        if not q:
            return x
        return _scalar(_add_scaled(x.num.terms, x.den.terms, q if sign == 1 else -q), x.den)
    q = _rational(x)
    if q is not None:
        n = y.num.terms if sign == 1 else _p_neg(y.num.terms)
        return _scalar(_add_scaled(n, y.den.terms, q), y.den)
    if x.den is _ONE_POLY and y.den is _ONE_POLY:
        return _scalar(_add_scaled(x.num.terms, y.num.terms, sign), _ONE_POLY)
    n, m = x.num * y.den, y.num * x.den
    return Scalar(n + m if sign == 1 else n - m, x.den * y.den)


def _canonicalize(num: dict, den: dict) -> tuple[dict, dict]:
    if not den:
        raise ScalarError("division by zero polynomial")
    if not num:
        return {}, _ONE_TERMS
    # constant numerator or denominator: the gcd is a unit
    if den.keys() == {(0, 0)}:
        c = den[(0, 0)]
        return (dict(num) if c == 1 else _p_scale(num, 1 / Fraction(c))), _ONE_TERMS
    if num.keys() != {(0, 0)}:
        g = _p_gcd(num, den)
        if g != _ONE_TERMS:
            num = _divexact(num, g, "Q")
            den = _divexact(den, g, "Q")
    _, lead = _p_leading(den)
    if lead != 1:
        inv = 1 / Fraction(lead)
        num = _p_scale(num, inv)
        den = _p_scale(den, inv)
    return num, den


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
LAMBDA, B = (_scalar(ParamPoly.variable(name).terms, _ONE_POLY) for name in "lb")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational given as "p/q" or "p"."""
    return Fraction(text.strip())
