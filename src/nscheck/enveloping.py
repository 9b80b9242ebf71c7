"""PBW normal forms for the enveloping and smash algebras.

Elements are finite sums  coefficient * (A-monomial (x) PBW monomial),
where the A-part sits fully to the left and the PBW part is a product of
generators sorted by ascending index (C, when present, first).  Products
are reduced to this normal form by the rewriting rules

    g * f      = (-1)^{|g||f|} f * g + (g o f)        (f an A-monomial)
    x * y      = (-1)^{|x||y|} y * x + [x, y]          (x, y out of order)
    g * g      = 1/2 [g, g]                            (g odd)

A product is one pass over the pairs of terms into one plain dict
(:func:`smash_product`; :func:`smash_bracket` sums both orders into the same
dict), read through the three cached rewriting tables.  Every element it
builds still runs the admission check of its mode, whose per-monomial part
is cached for the monomials it accepts.

The :class:`AlgebraMode` of an element names its algebra:

* ``KHAT``  - U(khat), the enveloping algebra of the centered algebra alone
  (unit A-part, central terms kept);
* ``K``     - A # k, the smash product of A with the centerless algebra;
* ``KPLUS`` - A+ # k+, the smash product of A+ with the contact subalgebra.

The named quadratic elements Omega and the degree-one families L'(n),
G'(n - 1/2) live here, together with the identities rebuilding L_n and
G_{n-1/2} from them.  Every binomial sum of the package but one is a finite
difference sum_i (-1)^i binom(m, i) term(i), built by :func:`alternating_sum`:
Omega, the G-L sum, the two A-chains of ``analysis``, both sums of L'(n),
G'(n - 1/2) and the G reconstruction identity.  The L reconstruction
identity weighs its terms by binom(n+1, k+1) and stays as displayed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import (
    A_ONE,
    AMonomial,
    AlgebraError,
    AlgebraMode,
    Combination,
    G,
    Gen,
    HalfInt,
    L,
    LieElement,
    bracket_basis,
    extend,
    gen_act_amon,
)
from .scalars import _coefficient

# Products whose combined PBW degree exceeds this are rejected as runaway.
DEGREE_GUARD = 6

PBWMonomial = tuple[Gen, ...]


@lru_cache(maxsize=None)
def _validate_pbw(p: PBWMonomial, mode: AlgebraMode) -> None:
    """Raise AlgebraError unless ``p`` is a sorted PBW monomial of generators
    that ``mode`` admits; an accepted (monomial, mode) is cached, a rejected
    one raises on every call."""
    prev = None
    for g in p:
        if not mode.admits(g):
            raise AlgebraError(f"generator {g.render()} not admissible in mode {mode.value}")
        key = g.sort_key()
        if prev is not None:
            if key < prev:
                raise AlgebraError("PBW monomial out of order")
            if key == prev and g.parity:
                raise AlgebraError("repeated odd generator in PBW monomial")
        prev = key


@lru_cache(maxsize=None)
def _insert_gen(p: PBWMonomial, g: Gen, with_center: bool) -> tuple[tuple[PBWMonomial, int | Fraction], ...]:
    """Normal form of the product (p) * g as sorted PBW monomials."""
    if not p:
        return (((g,), 1),)
    last = p[-1]
    lk, gk = last.sort_key(), g.sort_key()
    if lk < gk or (lk == gk and g.parity == 0):
        return ((p + (g,), 1),)
    # each piece (q, h) with coefficient c stands for c * (q * h)
    if lk == gk:
        # odd square: g*g = 1/2 [g, g]
        pieces = [((p[:-1], h), Fraction(1, 2) * c) for h, c in bracket_basis(g, g, with_center)]
    else:
        # last > g: swap, p * g = +/- (p' * g) * last + p' * [last, g]
        sign = -1 if (last.parity and g.parity) else 1
        pieces = [((q, last), sign * c) for q, c in _insert_gen(p[:-1], g, with_center)]
        pieces += [((p[:-1], h), c) for h, c in bracket_basis(last, g, with_center)]
    out = extend(pieces, lambda qh: _insert_gen(*qh, with_center))
    return tuple((q, _coefficient(c)) for q, c in out.items())


@lru_cache(maxsize=None)
def _pbw_mul(p: PBWMonomial, q: PBWMonomial, with_center: bool) -> tuple[tuple[PBWMonomial, int | Fraction], ...]:
    acc: dict[PBWMonomial, int | Fraction] = {p: 1}
    for g in q:
        acc = extend(acc.items(), lambda mono: _insert_gen(mono, g, with_center))
    return tuple((mono, _coefficient(c)) for mono, c in acc.items())


@lru_cache(maxsize=None)
def _pbw_past_amon(p: PBWMonomial, b: AMonomial) -> tuple[tuple[tuple[AMonomial, PBWMonomial], int | Fraction], ...]:
    """Normal form of (p) * b: the A-monomial commuted fully to the left,
    as ((A-monomial, PBW monomial), coefficient) pairs.

    Generator subsequences stay sorted, so no PBW reordering is needed.
    """
    if not p:
        return (((b, ()), 1),)
    last = p[-1]
    sign = -1 if (last.parity and b.parity) else 1
    # last * b = +/- b * last + (last o b); each piece is (A-monomial, tail)
    pieces = [((b, (last,)), sign)] + [((m2, ()), c) for m2, c in gen_act_amon(last, b)]

    def rest(piece):
        bmid, tail = piece
        return (((bout, mid + tail), c) for (bout, mid), c in _pbw_past_amon(p[:-1], bmid))

    return tuple((key, _coefficient(c)) for key, c in extend(pieces, rest).items())


class SmashElement(Combination):
    """Normal-formed element of one of the smash algebras."""

    __slots__ = ()
    _moded = True

    @staticmethod
    def _admit(terms: dict, mode: AlgebraMode) -> None:
        pure, plus = mode.has_center, mode is AlgebraMode.KPLUS
        for a, p in terms:
            if pure and a != A_ONE:
                raise AlgebraError("the enveloping algebra U(khat) admits no A-part")
            if plus and a.k < 0:
                raise AlgebraError(f"A-monomial {a.render()} not admissible in mode {mode.value}")
            _validate_pbw(p, mode)

    @staticmethod
    def _order(key: tuple[AMonomial, PBWMonomial]):
        a, p = key
        return (a, tuple(g.sort_key() for g in p))

    def _render_term(self, key: tuple[AMonomial, PBWMonomial], cs: str) -> str:
        a, p = key
        return self._times(cs, f"{a.render()} (x) {''.join(g.render() for g in p) or '1'}")

    @staticmethod
    def zero(mode: AlgebraMode) -> "SmashElement":
        return SmashElement({}, mode)

    @staticmethod
    def gen(g: Gen, mode: AlgebraMode) -> "SmashElement":
        return SmashElement({(A_ONE, (g,)): 1}, mode)

    @staticmethod
    def amon(k: int, eps: int = 0, mode: AlgebraMode = AlgebraMode.K) -> "SmashElement":
        return SmashElement({(AMonomial(k, eps), ()): 1}, mode)

    @staticmethod
    def from_lie(x: LieElement) -> "SmashElement":
        return SmashElement({(A_ONE, (g,)): c for g, c in x.terms.items()}, x.mode)

    def parity(self) -> int | None:
        ps = {(a.eps + sum(g.parity for g in p)) % 2 for a, p in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def pbw_degree(self) -> int:
        return max((len(p) for _, p in self.terms), default=0)


def _add_product(out: dict, x: SmashElement, y: SmashElement, sign: int) -> None:
    """Add sign * x y, in normal form, into the table ``out``.  Entries may
    sum to zero: the element built from ``out`` drops them."""
    x._check_mode(y)
    if x.pbw_degree() + y.pbw_degree() > DEGREE_GUARD:
        raise AlgebraError(f"product would exceed PBW degree guard {DEGREE_GUARD}")
    wc = x.mode.has_center
    get = out.get
    yterms = y.terms.items()
    for (ax, px), cx in x.terms.items():
        if sign < 0:
            cx = -cx
        for (ay, py), cy in yterms:
            base = cx * cy
            for (amid, pmid), c1 in _pbw_past_amon(px, ay):
                afull = ax.times(amid)
                if afull is None:
                    continue
                c = base * c1
                for pout, c2 in _pbw_mul(pmid, py, wc):
                    key = (afull, pout)
                    cur = get(key)
                    out[key] = c * c2 if cur is None else cur + c * c2


def smash_product(x: SmashElement, y: SmashElement) -> SmashElement:
    """Associative product in normal form."""
    out: dict = {}
    _add_product(out, x, y, 1)
    return SmashElement(out, x.mode)


def smash_bracket(x: SmashElement, y: SmashElement) -> SmashElement:
    """Super-commutator x y - (-1)^{|x||y|} y x of homogeneous elements,
    both orders summed into one table."""
    if x.is_zero() or y.is_zero():
        x._check_mode(y)
        return SmashElement.zero(x.mode)
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise AlgebraError("smash_bracket needs parity-homogeneous inputs")
    out: dict = {}
    _add_product(out, x, y, 1)
    _add_product(out, y, x, 1 if px and py else -1)
    return SmashElement(out, x.mode)


def alternating_sum(order: int, term, mode: AlgebraMode) -> SmashElement:
    """The finite difference sum_{i=0}^{order} (-1)^i binom(order, i) term(i),
    where ``term(i)`` is a table {(A-monomial, PBW monomial): coefficient}
    such as ``SmashElement.terms``; see the module docstring.  A negative
    order is an AlgebraError: the empty sum would pass for an identity."""
    if order < 0:
        raise AlgebraError(f"finite-difference order must be non-negative, got {order}")
    weights = ((i, (-1) ** i * comb(order, i)) for i in range(order + 1))
    return SmashElement(extend(weights, lambda i: term(i).items()), mode)


def omega(k: int, s: int, m: int, mode: AlgebraMode = AlgebraMode.KHAT) -> SmashElement:
    """Normal form of sum_i (-1)^i binom(m, i) L_{k-i} L_{s+i}."""
    return alternating_sum(m, lambda i: smash_product(
        SmashElement.gen(L(k - i), mode), SmashElement.gen(L(s + i), mode)).terms, mode)


def gl_sum(k: HalfInt, p: int, m: int, mode: AlgebraMode = AlgebraMode.KHAT) -> SmashElement:
    """Normal form of sum_i (-1)^i binom(m, i) G_{k-i} L_{p+i}."""
    return alternating_sum(m, lambda i: smash_product(
        SmashElement.gen(Gen("G", k - HalfInt.of(i)), mode),
        SmashElement.gen(L(p + i), mode)).terms, mode)


def l_prime(n: int, mode: AlgebraMode = AlgebraMode.K) -> SmashElement:
    """The degree-one element

    L'(n) = sum_{i=0}^{n+1} (-1)^{i+1} binom(n+1, i) t^{n-i+1} (x) L_{i-1}
          + (n+1)/2 sum_{i=0}^{n} (-1)^i binom(n, i) t^{n-i} xi (x) G_{i-1/2}.

    Defined for n >= -1: the n = -1 value of the defining sum is -L_{-1},
    the unique extension compatible with the reconstruction identities.
    """
    if n < -1:
        raise AlgebraError("l_prime defined for n >= -1 only")
    l_part = alternating_sum(n + 1, lambda i: {(AMonomial(n - i + 1, 0), (L(i - 1),)): -1}, mode)
    if n < 0:  # the G-part is the empty sum
        return l_part
    g_part = alternating_sum(
        n, lambda i: {(AMonomial(n - i, 1), (G(Fraction(2 * i - 1, 2)),)): Fraction(n + 1, 2)}, mode)
    return l_part + g_part


def g_prime(n: int, mode: AlgebraMode = AlgebraMode.K) -> SmashElement:
    """The degree-one element

    G'(n - 1/2) = sum_{i=0}^{n} (-1)^i binom(n, i)
                  (t^{n-i} (x) G_{i-1/2} - 2 t^{n-i} xi (x) L_{i-1}),

    defined for n >= 0.
    """
    if n < 0:
        raise AlgebraError("g_prime defined for n >= 0 only")
    return alternating_sum(n, lambda i: {
        (AMonomial(n - i, 0), (G(Fraction(2 * i - 1, 2)),)): 1,
        (AMonomial(n - i, 1), (L(i - 1),)): -2,
    }, mode)


def verify_reconstruction(n: int, mode: AlgebraMode = AlgebraMode.KPLUS):
    """Residuals of the two identities rebuilding L_n and G_{n-1/2} from
    the primed family:

        sum_{k=0}^n (-1)^k binom(n+1, k+1) t^{n-k} (L'_k - (k+1)/2 xi G'_{k-1/2})
            + t^{n+1} L_{-1}                                  = L_n
        sum_{k=0}^n (-1)^k binom(n, k) t^{n-k} (G'_{k-1/2} - 2 xi L'_{k-1})
                                                              = G_{n-1/2}

    Both residuals are zero.  The G identity at n = 0 reads L'(-1), so it
    forces the extension L'(-1) = -L(-1).
    """
    if n < 0:
        raise AlgebraError("reconstruction defined for n >= 0")

    # each primed element once: L'(-1..n) and G'(-1/2..n-1/2)
    lp = {k: l_prime(k, mode) for k in range(-1, n + 1)}
    gp = {k: g_prime(k, mode) for k in range(n + 1)}

    xi_mono = SmashElement.amon(0, 1, mode)
    lhs_l = SmashElement.zero(mode)
    for k in range(n + 1):
        c = (-1) ** k * comb(n + 1, k + 1)
        inner = lp[k] - smash_product(xi_mono, gp[k]).scale(Fraction(k + 1, 2))
        lhs_l = lhs_l + smash_product(SmashElement.amon(n - k, 0, mode), inner).scale(c)
    lhs_l = lhs_l + smash_product(
        SmashElement.amon(n + 1, 0, mode), SmashElement.gen(L(-1), mode)
    )
    res_l = lhs_l - SmashElement.gen(L(n), mode)

    lhs_g = alternating_sum(n, lambda k: smash_product(
        SmashElement.amon(n - k, 0, mode),
        gp[k] - smash_product(xi_mono, lp[k - 1]).scale(2)).terms, mode)
    res_g = lhs_g - SmashElement.gen(G(Fraction(2 * n - 1, 2)), mode)

    return res_l, res_g
