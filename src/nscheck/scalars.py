"""Exact arithmetic over Q and over the rational-function field Q(l, b).

Every coefficient in the package is a ``Scalar``: a quotient of two
polynomials in the formal parameters ``l`` and ``b`` with rational
coefficients, kept in a canonical form so that equality-to-zero is
decidable by plain representation comparison.

Canonical form of a Scalar:

* numerator and denominator share no polynomial factor (gcd removed),
* the denominator is monic with respect to the fixed term order,
* zero is ``0/1``, purely numeric values are ``c/1``.

The term order is graded lexicographic with ``l`` before ``b``.  All
polynomial coefficients are :class:`fractions.Fraction`, so the whole
tower is exact; no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = Fraction

# Exponent pair: (degree in l, degree in b).
Expt = tuple[int, int]


class ScalarError(ArithmeticError):
    """Division by the zero polynomial or zero Scalar."""


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


def _sorted_exponents(terms: Mapping[Expt, Fraction]) -> list[Expt]:
    return sorted(terms, key=_order_key, reverse=True)


def _p_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _p_neg(f: dict) -> dict:
    return {e: -c for e, c in f.items()}


def _p_sub(f: dict, g: dict) -> dict:
    return _p_add(f, _p_neg(g))


def _p_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            e = (a1 + a2, b1 + b2)
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _p_scale(f: dict, c: Fraction) -> dict:
    if not c:
        return {}
    return {e: k * c for e, k in f.items()}


def _p_leading(f: dict) -> tuple[Expt, Fraction]:
    e = max(f, key=_order_key)
    return e, f[e]


def _p_divexact(f: dict, g: dict) -> dict:
    """Exact multivariate division; raises if ``g`` does not divide ``f``."""
    if not g:
        raise ScalarError("division by zero polynomial")
    q: dict = {}
    r = dict(f)
    ge, gc = _p_leading(g)
    while r:
        re, rc = _p_leading(r)
        de = (re[0] - ge[0], re[1] - ge[1])
        if de[0] < 0 or de[1] < 0:
            raise ScalarError("inexact polynomial division")
        qc = rc / gc
        q[de] = q.get(de, Fraction(0)) + qc
        r = _p_sub(r, _p_mul({de: qc}, g))
    return q


def _deg_l(f: dict) -> int:
    return max((e[0] for e in f), default=-1)


def _p_monic(f: dict) -> dict:
    if not f:
        return {}
    _, c = _p_leading(f)
    return _p_scale(f, 1 / c)


# gcd machinery: cleared to integer coefficients (Gauss's lemma), primitive
# pseudo-remainder sequences with the main variable l; plain int arithmetic
# keeps the tiny inputs fast


def _ip_add_scaled(f: dict, g: dict, c: int, shift: Expt) -> dict:
    out = dict(f)
    for e, k in g.items():
        key = (e[0] + shift[0], e[1] + shift[1])
        s = out.get(key, 0) + c * k
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _ip_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            e = (a1 + a2, b1 + b2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _ip_content_int(f: dict) -> int:
    from math import gcd

    c = 0
    for v in f.values():
        c = gcd(c, v)
    return c or 1


def _ip_normalize(f: dict) -> dict:
    """Divide by the integer content; make the leading coefficient positive."""
    if not f:
        return {}
    c = _ip_content_int(f)
    if f[max(f, key=_order_key)] < 0:
        c = -c
    return {e: v // c for e, v in f.items()}


def _ip_divexact(f: dict, g: dict) -> dict:
    q: dict = {}
    r = dict(f)
    ge = max(g, key=_order_key)
    gc = g[ge]
    while r:
        re = max(r, key=_order_key)
        de = (re[0] - ge[0], re[1] - ge[1])
        if de[0] < 0 or de[1] < 0 or r[re] % gc:
            raise ScalarError("inexact polynomial division")
        qc = r[re] // gc
        q[de] = qc
        r = _ip_add_scaled(r, g, -qc, de)
    return q


def _ip_gcd_uni_b(f: dict, g: dict) -> dict:
    """Primitive gcd of integer polynomials in b alone."""
    f, g = _ip_normalize(f), _ip_normalize(g)
    while g:
        dg = max(e[1] for e in g)
        gc = g[(0, dg)]
        r = dict(f)
        while r and max(e[1] for e in r) >= dg:
            dr = max(e[1] for e in r)
            rc = r[(0, dr)]
            r = _ip_add_scaled({e: gc * v for e, v in r.items()}, g, -rc, (0, dr - dg))
        f, g = g, _ip_normalize(r)
    return f


def _ip_content_l(f: dict) -> dict:
    cont: dict = {}
    for d in sorted({e[0] for e in f}):
        coeff = {(0, e[1]): c for e, c in f.items() if e[0] == d}
        cont = _ip_gcd_uni_b(cont, coeff)
        if cont == {(0, 0): 1}:
            break
    return cont


def _ip_primitive_l(f: dict) -> dict:
    if not f:
        return {}
    cont = _ip_content_l(f)
    if cont == {(0, 0): 1}:
        return _ip_normalize(f)
    return _ip_normalize(_ip_divexact(f, cont))


def _ip_prem_l(f: dict, g: dict) -> dict:
    dg = _deg_l(g)
    lcg = {(0, e[1]): c for e, c in g.items() if e[0] == dg}
    r = dict(f)
    while r and _deg_l(r) >= dg:
        dr = _deg_l(r)
        lcr = {(0, e[1]): c for e, c in r.items() if e[0] == dr}
        shifted = _ip_mul(lcr, {(dr - dg, 0): 1})
        r = _ip_add_scaled(_ip_mul(lcg, r), _ip_mul(shifted, g), -1, (0, 0))
    return r


def _ip_gcd(f: dict, g: dict) -> dict:
    if not f:
        return _ip_normalize(g)
    if not g:
        return _ip_normalize(f)
    if _deg_l(f) == 0 and _deg_l(g) == 0:
        return _ip_gcd_uni_b(f, g)
    cont = _ip_gcd_uni_b(_ip_content_l(f), _ip_content_l(g))
    a, b_ = _ip_primitive_l(f), _ip_primitive_l(g)
    if _deg_l(a) < _deg_l(b_):
        a, b_ = b_, a
    while b_:
        r = _ip_prem_l(a, b_)
        a, b_ = b_, _ip_primitive_l(r)
    return _ip_normalize(_ip_mul(cont, a))


def _clear_denominators(f: dict) -> dict:
    from math import lcm

    scale = 1
    for c in f.values():
        scale = lcm(scale, c.denominator)
    return {e: int(c * scale) for e, c in f.items()}


def _p_gcd(f: dict, g: dict) -> dict:
    """Monic gcd in Q[l, b]."""
    if not f or not g:
        return _p_monic(f or g)
    got = _ip_gcd(_clear_denominators(f), _clear_denominators(g))
    lead = got[max(got, key=_order_key)]
    return {e: Fraction(c, lead) for e, c in got.items()}


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
    Fractions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expt, Fraction | int] | None = None):
        clean: dict = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[(int(e[0]), int(e[1]))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("ParamPoly is immutable")

    @staticmethod
    def const(c) -> "ParamPoly":
        return ParamPoly({(0, 0): Fraction(c)})

    @staticmethod
    def variable(name: str) -> "ParamPoly":
        if name == "l":
            return ParamPoly({(1, 0): Fraction(1)})
        if name == "b":
            return ParamPoly({(0, 1): Fraction(1)})
        raise ValueError(f"unknown parameter {name!r}; only l and b exist")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError(f"{self.render()} is not constant")
        return self.terms.get((0, 0), Fraction(0))

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        return ParamPoly(_p_add(self.terms, other.terms))

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return ParamPoly(_p_sub(self.terms, other.terms))

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(_p_neg(self.terms))

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        return ParamPoly(_p_mul(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, l_val: Fraction | None, b_val: Fraction | None) -> "ParamPoly":
        out: dict = {}
        for (dl, db), c in self.terms.items():
            v = c
            el, eb = dl, db
            if l_val is not None:
                v *= Fraction(l_val) ** dl
                el = 0
            if b_val is not None:
                v *= Fraction(b_val) ** db
                eb = 0
            e = (el, eb)
            s = out.get(e, Fraction(0)) + v
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return ParamPoly(out)

    def render(self) -> str:
        return _p_render(self.terms)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


class Scalar:
    """Canonical element of Q(l, b); see the module docstring."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly, _canonical: bool = False):
        if _canonical:
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)
            return
        n, d = _canonicalize(num.terms, den.terms)
        object.__setattr__(self, "num", ParamPoly(n))
        object.__setattr__(self, "den", ParamPoly(d))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def of(value) -> "Scalar":
        """Scalar from an int, Fraction or Scalar."""
        if isinstance(value, Scalar):
            return value
        return Scalar(ParamPoly.const(Fraction(value)), ParamPoly.const(1))

    @staticmethod
    def lam() -> "Scalar":
        return Scalar(ParamPoly.variable("l"), ParamPoly.const(1))

    @staticmethod
    def bparam() -> "Scalar":
        return Scalar(ParamPoly.variable("b"), ParamPoly.const(1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_numeric(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def numeric_value(self) -> Fraction:
        if not self.is_numeric():
            raise ScalarError(f"{self.render()} is not numeric")
        return self.num.constant_value() / self.den.constant_value()

    def __add__(self, other) -> "Scalar":
        other = Scalar.of(other)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = Scalar.of(other)
        return Scalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _canonical=True)

    def __mul__(self, other) -> "Scalar":
        other = Scalar.of(other)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.of(other)
        if other.is_zero():
            raise ScalarError("division by zero Scalar")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        return isinstance(other, Scalar) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def substitute(self, l_val=None, b_val=None) -> "Scalar":
        l_val = None if l_val is None else Fraction(l_val)
        b_val = None if b_val is None else Fraction(b_val)
        den = self.den.substitute(l_val, b_val)
        if den.is_zero():
            raise PoleError(self.den.render())
        return Scalar(self.num.substitute(l_val, b_val), den)

    def render(self) -> str:
        ns = self.num.render()
        if self.den == ParamPoly.const(1):
            return ns
        ds = self.den.render()
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        if len(self.den.terms) > 1:
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


def _canonicalize(num: dict, den: dict) -> tuple[dict, dict]:
    if not den:
        raise ScalarError("division by zero polynomial")
    if not num:
        return {}, {(0, 0): Fraction(1)}
    # constant numerator or denominator: the gcd is a unit
    if den.keys() == {(0, 0)}:
        c = den[(0, 0)]
        return (dict(num) if c == 1 else _p_scale(num, 1 / c)), {(0, 0): Fraction(1)}
    if num.keys() != {(0, 0)}:
        g = _p_gcd(num, den)
        if g != {(0, 0): Fraction(1)}:
            num = _p_divexact(num, g)
            den = _p_divexact(den, g)
    _, lead = _p_leading(den)
    if lead != 1:
        num = _p_scale(num, 1 / lead)
        den = _p_scale(den, 1 / lead)
    return num, den


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
LAMBDA = Scalar.lam()
B = Scalar.bparam()


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational given as "p/q" or "p"."""
    return Fraction(text.strip())

