"""Exact arithmetic over Q and over the rational-function field Q(l, b).

A ``Scalar`` is a quotient of two polynomials in the formal parameters
``l`` and ``b`` with rational coefficients, kept in a canonical form so
that equality-to-zero is decidable by plain representation comparison.
A polynomial is a plain term table, a dict from exponent pairs (deg l,
deg b) to nonzero coefficients; a Scalar is a reduced pair of them, read
from outside through the read-only views ``num`` and ``den``.  A
coefficient that involves neither parameter is kept as an int or a
Fraction instead (the coefficient rule below).

Canonical form of a Scalar:

* numerator and denominator share no polynomial factor (gcd removed),
* the denominator is monic with respect to the fixed term order,
* zero is ``0/1``, purely numeric values are ``c/1``; a denominator 1 is
  always the one shared table ``_ONE_TERMS``, itself read-only (no code
  mutates a Scalar's tables, and no code outside can: a write through
  ``num`` or ``den`` raises TypeError).

Arithmetic forms the textbook numerator and denominator and reduces them
with :func:`_canonicalize` (gcd, then monic), except in three cases whose
result is canonical by construction:

* rational scaling: ``x * c`` for an int, Fraction or numeric Scalar
  ``c`` (and ``x / c``, which is ``x * (1/c)``) scales the numerator and
  keeps the denominator; a nonzero constant keeps the pair coprime;
* sums over denominator one: the numerators add over the denominator 1,
  which is coprime to anything and monic;
* adding a rational ``q`` to ``n/d`` gives ``(n + q d)/d``, because
  ``gcd(n + q d, d) = gcd(n, d) = 1``.

The term order is graded lexicographic with ``l`` before ``b``.

Coefficient rule: every coefficient of a term table is exact, and an
integral one is a plain ``int``; any other is a :class:`fractions.Fraction`
whose denominator is greater than 1.  The kernels and the constructors
normalise their results to this rule, so most arithmetic runs on machine
ints; the constructor ``Scalar(num, den)``, which takes term tables from
outside, also rejects an exponent that is not a non-negative int.  The
exact tables follow the rule too, each entry normalised by
:func:`_coefficient` as it is made: the structure constants of ``algebra``
(``bracket_basis``, ``gen_act_amon``, ``amon_act_gen`` and their cached
integer tables) and the cached PBW tables of ``enveloping``
(``_insert_gen``, ``_pbw_mul``, ``_pbw_past_amon``).  So do the elements
(``algebra.Combination``: Lie, A, smash and module elements), whose
constructor turns a numeric Scalar into its value by :func:`_rational` and
keeps a Scalar only when it involves l or b, and so does the basis-level
module action (``modules.GammaModule.gen_action``), with its edge records
and the scalings of an intertwiner.  Every division of a coefficient goes
through ``Fraction`` (``1 / Fraction(c)`` here, ``Fraction(p, q)`` in the
other layers, which write no ``/``), so ``int / int`` never yields a float.
Operands must be ints, Fractions or Scalars: a float raises
:class:`ScalarError`, and no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
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


# read-only, so no Scalar over 1 can change the denominator of the others
_ONE_TERMS = MappingProxyType({(0, 0): 1})


def _p_substitute(f: dict, l_val: int | Fraction | None, b_val: int | Fraction | None) -> dict:
    """f with l replaced by l_val and b by b_val, each where it is not None."""
    out: dict = {}
    for (dl, db), c in f.items():
        if l_val is not None:
            c *= l_val ** dl
            dl = 0
        if b_val is not None:
            c *= b_val ** db
            db = 0
        out = _add_scaled(out, _ONE_TERMS, c, (dl, db))
    return out


def _terms(f: Mapping[Expt, int | Fraction]) -> dict:
    """A term table from outside, validated and cleaned: every exponent a
    pair of non-negative ints, every coefficient under the coefficient rule
    and nonzero.  Anything else, a float in particular, raises ScalarError."""
    clean: dict = {}
    for e, c in f.items():
        if not (type(e) is tuple and len(e) == 2 and all(type(d) is int and d >= 0 for d in e)):
            raise ScalarError(f"exponent {e!r} is not a pair of non-negative ints")
        c = _coefficient(c)
        if c:
            clean[e] = c
    return clean


def _rational(x):
    """The value of a rational operand (int, Fraction or numeric Scalar)
    under the coefficient rule; None for a Scalar that involves l or b.
    Any other operand, a float in particular, raises ScalarError."""
    if isinstance(x, Scalar):
        t = x._num
        if x._den is _ONE_TERMS and (not t or (len(t) == 1 and (0, 0) in t)):
            return t.get((0, 0), 0)
        return None
    return _coefficient(x)


class Scalar:
    """Canonical element of Q(l, b); see the module docstring.

    The reduced term tables live in the private slots ``_num`` and
    ``_den``, which only this module reads; ``num`` and ``den`` are
    read-only views of them.  The constructor takes two mappings from
    outside and validates them as :func:`_terms` does; the arithmetic
    builds its results by :func:`_scalar`.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Mapping[Expt, int | Fraction], den: Mapping[Expt, int | Fraction]):
        n, d = _canonicalize(_terms(num), _terms(den))
        object.__setattr__(self, "_num", n)
        object.__setattr__(self, "_den", d)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Scalar is immutable")

    @property
    def num(self) -> Mapping[Expt, int | Fraction]:
        """The numerator's term table, read-only."""
        return MappingProxyType(self._num)

    @property
    def den(self) -> Mapping[Expt, int | Fraction]:
        """The denominator's term table, read-only: ``_ONE_TERMS`` itself
        over 1."""
        d = self._den
        return d if d is _ONE_TERMS else MappingProxyType(d)

    @staticmethod
    def of(value) -> "Scalar":
        """Scalar from an int, Fraction or Scalar; a float raises ScalarError."""
        if isinstance(value, Scalar):
            return value
        value = _coefficient(value)
        return _scalar({(0, 0): value} if value else {}, _ONE_TERMS)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

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
        return _scalar(_p_neg(self._num), self._den)

    def __mul__(self, other) -> "Scalar":
        x, q = self, _rational(other)
        if q is None:
            x, q = other, _rational(self)
            if q is None:
                n, d = _mul(self._num, other._num), _mul(self._den, other._den)
                return _scalar(*_canonicalize(n, d))
        # rational scaling: a nonzero constant keeps num and den coprime
        if not q:
            return ZERO
        return x if q == 1 else _scalar(_p_scale(x._num, q), x._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        q = _rational(other)
        if q is not None:
            if not q:
                raise ScalarError("division by zero Scalar")
            return _scalar(_p_scale(self._num, 1 / Fraction(q)), self._den)
        return _scalar(*_canonicalize(_mul(self._num, other._den), _mul(self._den, other._num)))

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return _rational(self) == other
        return False

    def __hash__(self):
        # a numeric Scalar hashes as the rational it equals
        q = _rational(self)
        if q is None:
            return hash((frozenset(self._num.items()), frozenset(self._den.items())))
        return hash(q)

    def substitute(self, l_val=None, b_val=None) -> "Scalar":
        """l and b replaced by the rationals l_val and b_val, each where it
        is not None; a float raises ScalarError."""
        l_val = None if l_val is None else _coefficient(l_val)
        b_val = None if b_val is None else _coefficient(b_val)
        den = _p_substitute(self._den, l_val, b_val)
        if not den:
            raise PoleError(_p_render(self._den))
        return _scalar(*_canonicalize(_p_substitute(self._num, l_val, b_val), den))

    def render(self) -> str:
        ns = _p_render(self._num)
        if self._den is _ONE_TERMS:
            return ns
        ds = _p_render(self._den)
        if len(self._num) > 1:
            ns = f"({ns})"
        if len(self._den) > 1 or "*" in ds:
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


def _scalar(num: dict, den: dict) -> Scalar:
    """Scalar over a pair of term tables that is already canonical, with
    the denominator 1 as the shared ``_ONE_TERMS``."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "_num", num)
    object.__setattr__(s, "_den", den)
    return s


def _sum(x: Scalar, y, sign: int) -> Scalar:
    """x + sign * y for sign = 1 or -1, through the shortcuts where they apply."""
    q = _rational(y)
    if q is not None:
        # (n + q d)/d: gcd(n + q d, d) = gcd(n, d) = 1
        if not q:
            return x
        return _scalar(_add_scaled(x._num, x._den, q if sign == 1 else -q), x._den)
    q = _rational(x)
    if q is not None:
        n = y._num if sign == 1 else _p_neg(y._num)
        return _scalar(_add_scaled(n, y._den, q), y._den)
    if x._den is _ONE_TERMS and y._den is _ONE_TERMS:
        return _scalar(_add_scaled(x._num, y._num, sign), _ONE_TERMS)
    n = _add_scaled(_mul(x._num, y._den), _mul(y._num, x._den), sign)
    return _scalar(*_canonicalize(n, _mul(x._den, y._den)))


def _canonicalize(num: dict, den: dict) -> tuple[dict, dict]:
    """The canonical pair of num/den, for term tables that no caller reads
    again: the denominator 1 is the shared ``_ONE_TERMS``."""
    if not den:
        raise ScalarError("division by zero polynomial")
    if not num:
        return {}, _ONE_TERMS
    # constant numerator or denominator: the gcd is a unit
    if den.keys() == {(0, 0)}:
        c = den[(0, 0)]
        return (num if c == 1 else _p_scale(num, 1 / Fraction(c))), _ONE_TERMS
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
    return num, (_ONE_TERMS if den == _ONE_TERMS else den)


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
LAMBDA, B = _scalar({(1, 0): 1}, _ONE_TERMS), _scalar({(0, 1): 1}, _ONE_TERMS)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational given as "p/q" or "p"."""
    return Fraction(text.strip())
