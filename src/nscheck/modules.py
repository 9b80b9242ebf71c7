"""The intermediate-series weight modules Gamma(lambda, b) and variants.

The underlying space is spanned by keys (k, eps) standing for t^k xi^eps.
Gamma(lambda, b) is the rank-one jet module A_lambda (x) C_b: A acts on
t^{lambda+k} xi^eps by multiplication, L'(0) acts on C_b as b and every
primed element of positive degree acts as 0.  A generator g then acts on
t^k xi^eps as A's superderivation action (``algebra.gen_act_amon``) plus
multiplication by the jet term (``algebra.jet_coefficient``, which also
builds the bracket: the centerless algebra is A_1 (x) C_{-1})

    mu(L_n)       = (l + (n+1) b) t^n
    mu(G_{n+1/2}) = (l + 2(n+1) b) t^n xi

which, written out, is

    L_n . t^k          = (l + k + b(n+1)) t^{n+k}
    L_n . t^k xi       = (l + k + (n+1)(b + 1/2)) t^{n+k} xi
    G_{n+1/2} . t^k    = sigma (k + l + 2b(n+1)) t^{n+k} xi
    G_{n+1/2} . t^k xi = -t^{n+k+1}

with sigma = +1 under the default "corrected" sign convention and
sigma = -1 under "paper-printed".  The printed pair of odd-action signs
fails the odd-odd module axiom by a global sign; the corrected choice is
one of the two consistent repairs (they differ by G -> -G and give
identical classification data).  Lambda and b may be exact rationals or
the formal parameters.  A numeric handle computes each coefficient in
machine integers over one common denominator D = lcm(2, den lambda, den b)
and divides by D once; a symbolic or mixed one runs the same formula on
Scalars; either keeps the coefficient rule of ``scalars``, as every table
and element does.

Every key move is one degree rule: t^k xi^eps has degree k + eps/2, and an
element of degree d moves it to the key of degree k + eps/2 + d (a key is
an A-monomial: ``AMonomial.shifted``), of weight lambda + b plus that
degree.  The module axiom (:func:`module_axiom_residual`) is the
representation law ``algebra.rep_residual`` that the structural suites
check, over the free table of op chains: the law gives the chains, with
their coefficients, and ``act_each``'s fold (below) evaluates them, so every
composition of the module action runs on the handle's one table.

Sub-quotients: a module is gamma(lambda, b) with a cut, two out-closed
key sets S and T (:class:`KeySet`: no or all keys, finite, cofinite, or a
degree half-line), checked on construction (:func:`_check_out_closed`).
Its vectors are the keys of T outside S (the sub-quotient T/(S cap T)), an
action target in S is projected away, and an A-monomial acts iff it maps
S into S and T into T.  The label only names the module: ``gamma`` has no
cut; ``gamma+`` (T) and ``gamma-`` (S) cut at the keys k >= 0 over kplus;
``gamma'`` cuts at the key of weight 0 where its edges allow it.

The handle and its table: a :class:`GammaModule` is one frozen record
that checks its cut when it is built, by the constructor or by
``dataclasses.replace``, so an invalid handle cannot exist.  On
construction (so ``replace`` recomputes them) it decides once, in
``_cut``, whether it has a cut, so an uncut handle admits every key
without a membership test, and it makes its one action table ``_table``,
which lives and dies with the handle: equal handles do not share one.
All handles share the part of a generator's entry that none of them
changes, made once per process and keyed by (op, key) (``_gen_part``, the
module path's one cache of the plain rule ``algebra.gen_act_amon``): the
target key, A's derivation coefficient and whether the paper-printed sign
applies.  All else in an entry is the handle's own: the admission of
the key, of the generator in the mode and of an A-monomial on the cut,
the jet term (``jet_term``, the one reader of mu), the scaling, the sign
of the convention, the cut's projection and the coefficient rule.  The
table makes the one scaling decision, D as above on a numeric handle, and
D P, clearing every denominator of a coefficient, with a formal parameter;
P is the product of the parameters' denominators, polynomials in l and b,
which ``scalars`` keeps as plain term tables (a Scalar is the reduced pair
``num``/``den`` of them).  Its entry for a generator or A-monomial op on a
key is filled once, on first use (errors are never stored): () where op
kills the key, else (target, n, action).  The fold reads (target, n), n =
E(D P c) for the Kronecker encoding E of ``scalars`` (the identity on a
numeric handle, where P = 1 and n is the integer D c of the jet formula),
and ``gen_action`` and ``amon_action`` return the coefficient-rule Action
((target, c),), the one-entry reader of the edges, the cut checks, the
intertwiner and the reducibility locus.

:func:`act_each` and the module axiom (:func:`module_axiom_residuals`)
evaluate on a list of vectors by one fold in machine integers over that
table, the same for every handle, which returns one plain table per vector
(:func:`act` is its one-vector case).  For each term c_t (a (x) g_1...g_r)
and the keys of all the vectors at once it multiplies the entries along the
factors, right to left and the A-part last, and sums each vector's products
over one common denominator, (D P)^R times the lcm of the denominators of
the rational coefficients, R the longest term; a term with no factors checks
its keys in its turn.  It builds one Fraction (numeric) or one decoded
Scalar (otherwise) per output coefficient; a Scalar coefficient of a term or
of a vector multiplies only that result.  The fold bounds the 1-norm and the
degree in b of every output, and redoes itself over a table at a radix that
holds an output outside the encoding, filled as the handle's table is, so a
decoded coefficient is exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import algebra
from .algebra import (
    A_ONE,
    AElement,
    AMonomial,
    AlgebraMode,
    Combination,
    Gen,
    HalfInt,
    LieElement,
    accumulate,
    basis,
    gen_act_amon,
    jet_coefficient,
    rep_residual,
)
from .enveloping import SmashElement
from .scalars import (
    B,
    LAMBDA,
    ONE,
    ZERO,
    Scalar,
    _decode,
    _encode,
    _mul,
    _rational,
    parse_rational,
)


class ModuleError(ValueError):
    """Invalid family parameters or inadmissible actions."""


class Family(enum.Enum):
    GAMMA = "gamma"
    GAMMA_PLUS = "gamma+"
    GAMMA_MINUS = "gamma-"
    GAMMA_PRIME = "gamma'"


class SignConvention(enum.Enum):
    CORRECTED = "corrected"
    PAPER_PRINTED = "paper-printed"

    @staticmethod
    def parse(text: str) -> "SignConvention":
        try:
            return SignConvention(text)
        except ValueError:
            raise ModuleError(f"unknown sign convention {text!r}") from None


class BasisKey(AMonomial):
    """Key (k, eps) for the basis vector t^k xi^eps: an A-monomial, so it
    has A's degree rule (``degree``, ``shifted``, ``times``)."""

    __slots__ = ()

    def render(self) -> str:
        return f"t^{self.k}" + (" xi" if self.eps else "")


# the basis-level action: at most one (target key, coefficient) pair
Action = tuple[tuple[BasisKey, int | Fraction | Scalar], ...]


@dataclass(frozen=True)
class Window:
    """Finite truncation [kmin, kmax] of the integer key line, with an
    interior margin so that bounded-index actions stay observable."""

    kmin: int
    kmax: int
    margin: int = 0

    def __post_init__(self):
        if self.margin < 0 or self.kmin + self.margin > self.kmax - self.margin:
            raise ModuleError(f"invalid window {self.kmin}..{self.kmax} margin {self.margin}")

    def interior(self) -> range:
        return range(self.kmin + self.margin, self.kmax - self.margin + 1)

    def full(self) -> range:
        return range(self.kmin, self.kmax + 1)

    def render(self) -> str:
        return f"{self.kmin}..{self.kmax}(margin {self.margin})"


class ModuleVector(Combination):
    """Finite exact-linear combination of basis keys (no mode); its
    coefficients keep the coefficient rule, a Scalar only in l or b."""

    __slots__ = ()

    def _render_term(self, key: BasisKey, cs: str) -> str:
        return f"{cs} * {key.render()}"

    @staticmethod
    def basis(key: BasisKey) -> "ModuleVector":
        return ModuleVector({key: 1})


@dataclass(frozen=True)
class KeySet:
    """The keys in ``keys``, or all others if ``cofinite``, or those of degree >= ``floor``."""

    keys: frozenset = frozenset()
    cofinite: bool = False
    floor: HalfInt | None = None

    def __contains__(self, key: AMonomial) -> bool:
        if self.floor is not None:
            return key.degree >= self.floor
        return (key in self.keys) != self.cofinite if self.keys else self.cofinite

    def stable_under(self, mono: AMonomial) -> bool:
        """Whether multiplication by ``mono`` maps this set into itself."""
        if self.floor is not None:
            return mono.k >= 0
        if self.cofinite:  # no kept key may map onto an omitted one
            return all(pre in self.keys or mono.times(pre) is None
                       for pre in (key.shifted(-mono.degree) for key in self.keys))
        return all(p is None or p in self.keys for p in map(mono.times, self.keys))


NOTHING, EVERYTHING = KeySet(), KeySet(cofinite=True)
NONNEGATIVE = KeySet(floor=HalfInt(0))  # the keys t^k xi^eps with k >= 0


@dataclass(frozen=True)
class GammaModule:
    """The sub-quotient T/(S cap T) of gamma(lam, b), S = ``sub`` and T =
    ``top``; ``family`` only names it.  See the module docstring."""

    lam: Scalar
    b: Scalar
    family: Family = Family.GAMMA
    sub: KeySet = NOTHING
    top: KeySet = EVERYTHING
    convention: SignConvention = SignConvention.CORRECTED
    algebra_mode: AlgebraMode = AlgebraMode.KHAT
    parity_flipped: bool = False
    _cut: bool = field(init=False, repr=False, compare=False)
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_cut", self.sub != NOTHING or self.top != EVERYTHING)
        object.__setattr__(self, "_table", _ActionTable(self))
        for part in (self.sub, self.top):
            _check_out_closed(self, part)

    def is_cut(self) -> bool:
        return self._cut

    def plain(self) -> "GammaModule":
        """gamma(lam, b) in the same mode and convention: no cut."""
        return replace(self, family=Family.GAMMA, sub=NOTHING, top=EVERYTHING)

    def a_acts(self, mono: AMonomial) -> bool:
        """Whether ``mono`` acts: it maps S into S and T into T."""
        return self.sub.stable_under(mono) and self.top.stable_under(mono)

    def is_numeric(self) -> bool:
        return self._table.scale is None

    def admissible(self, key: BasisKey) -> bool:
        return not self._cut or (key in self.top and key not in self.sub)

    def vector_parity(self, key: BasisKey) -> int:
        return key.eps ^ (1 if self.parity_flipped else 0)

    def gen_action(self, op: Gen | AMonomial, key: BasisKey) -> Action:
        """Action of a basis generator (as ``amon_action``: multiplication
        by an A-monomial) on a basis vector: at most one target key with
        its exact coefficient, after the cut, read from the handle's table."""
        entry = self._table.get((op, key))
        if entry is None:
            entry = self._table.fill(self, op, key)
        return entry[2] if entry else ()

    amon_action = gen_action

    def jet_term(self, gen: Gen, mono: AMonomial) -> Scalar | int:
        """D times the coefficient of mu_g * mono (``algebra.jet_coefficient``,
        which is linear in lambda and b, at the table's ``params``): an int
        for a numeric handle, else (D = 1 here) a Scalar or 0."""
        return jet_coefficient(gen, mono, *self._table.params)

    def descriptor(self) -> str:
        body = f"{self.family.value}({self.lam.render()},{self.b.render()})"
        return f"pi({body})" if self.parity_flipped else body

    def __repr__(self):
        return f"GammaModule({self.descriptor()}, {self.algebra_mode.value})"


# the generators each mode admits, three or more indices of each kind
# (_check_out_closed), read-only
_PROBE_GENS = MappingProxyType({mode: tuple(basis(3, mode)) for mode in AlgebraMode})


def edge_coeffs(mod: GammaModule, key: BasisKey, gens) -> tuple[list, list]:
    """Nonzero coefficients of the edges out of and into ``key`` along the
    generators of ``gens``, which the mode admits, read without the cut."""
    plain, outs, ins = mod.plain(), [], []
    for g in gens:
        outs += [c for _, c in plain.gen_action(g, key)]
        ins += [c for _, c in plain.gen_action(g, key.shifted(-g.degree))]
    return outs, ins


def _check_out_closed(mod: GammaModule, part: KeySet) -> None:
    """Raise ModuleError unless the keys of ``part`` span a submodule.

    At a key, an edge coefficient along one generator kind (L or G) is
    affine in the generator index, so it vanishes identically once it does
    at two indices (Alon, "Combinatorial Nullstellensatz", 1999, in one
    variable).  A key has edges to infinitely many keys, so a finite set is
    out-closed iff its keys have no edges, a cofinite set iff the keys it
    omits have no in-edges, and (over kplus: degrees >= -1) a half-line of
    degrees >= d iff no edge leaves its keys of degree d and d + 1/2.
    """
    mode = mod.algebra_mode
    if part.floor is None:
        leaks = [key for key in part.keys
                 if edge_coeffs(mod, key, _PROBE_GENS[mode])[part.cofinite]]
    elif mode is not AlgebraMode.KPLUS:
        raise ModuleError(f"a half-line cut needs kplus: {mod.descriptor()} is over {mode.value}")
    else:
        plain = mod.plain()
        leaks = [t for eps in (0, 1) for g in _PROBE_GENS[mode]
                 for t, _ in plain.gen_action(g, BasisKey(0, eps).shifted(part.floor))
                 if t not in part]
    if leaks:
        raise ModuleError(f"the cut of {mod.descriptor()} is not invariant at {leaks[0].render()}")


# the half-line cuts (S, T) of gamma+ and gamma-
_CUTS = {Family.GAMMA_PLUS: (NOTHING, NONNEGATIVE), Family.GAMMA_MINUS: (NONNEGATIVE, EVERYTHING)}


def gamma(lam, b, algebra_mode: AlgebraMode = AlgebraMode.KHAT,
          convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    return GammaModule(Scalar.of(lam), Scalar.of(b), convention=convention,
                       algebra_mode=algebra_mode)


def gamma_plus(b, convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    return GammaModule(ZERO, Scalar.of(b), Family.GAMMA_PLUS, *_CUTS[Family.GAMMA_PLUS],
                       convention, AlgebraMode.KPLUS)


def gamma_minus(b, convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    return GammaModule(ZERO, Scalar.of(b), Family.GAMMA_MINUS, *_CUTS[Family.GAMMA_MINUS],
                       convention, AlgebraMode.KPLUS)


def gamma_prime(lam, b, algebra_mode: AlgebraMode = AlgebraMode.KHAT,
                convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    """Gamma'(lambda, b): the distinguished simple sub-quotient, cut at the
    key of weight 0.  With no edge out of it, that key is projected away
    (S = {key}); with no edge into it, it is left out (T = all other keys).
    Otherwise, or with no key of weight 0, it is gamma(lambda, b)."""
    mod = replace(gamma(lam, b, algebra_mode, convention), family=Family.GAMMA_PRIME)
    # the weight lambda + b of t^0, None unless numeric: in Q on a numeric
    # handle, and l + b may be numeric on a formal one, as for gamma'(l, 1 - l)
    weight0 = (mod.lam.numeric_value() + mod.b.numeric_value() if mod.is_numeric()
               else _rational(mod.lam + mod.b))
    if weight0 is None or (2 * weight0).denominator != 1:
        return mod
    key = BasisKey(0, 0).shifted(-HalfInt.of(weight0))
    outs, ins = edge_coeffs(mod, key, _PROBE_GENS[mod.algebra_mode])
    if not outs:
        return replace(mod, sub=KeySet(frozenset({key})))
    return mod if ins else replace(mod, top=KeySet(frozenset({key}), cofinite=True))


def parity_change(mod: GammaModule) -> GammaModule:
    """The parity-change twin: same vectors, same action, flipped parity."""
    return replace(mod, parity_flipped=not mod.parity_flipped)


def act_each(x, vecs: list[dict], mod: GammaModule) -> list[dict]:
    """The coefficient table of x on each {key: coefficient} table of
    ``vecs``, by one fold for all of them, which raises what :func:`act`
    raises on the vector of all their keys.  x may be a Gen, LieElement,
    AElement or SmashElement; smash terms apply PBW factors right-to-left
    and the A-part last; see the module docstring for the action contract."""
    if isinstance(x, Gen):
        chains = [((x,), 1)]
    elif isinstance(x, LieElement):
        chains = [((g,), c) for g, c in x.terms.items()]
    elif isinstance(x, AElement):
        chains = [(() if m == A_ONE else (m,), c) for m, c in x.terms.items()]
    elif isinstance(x, SmashElement):
        chains = [(pbw[::-1] + (() if a == A_ONE else (a,)), c)
                  for (a, pbw), c in x.terms.items()]
    else:
        raise ModuleError(f"cannot act with object of type {type(x).__name__}")
    return _fold(chains, vecs, mod)


def act(x, v: ModuleVector, mod: GammaModule) -> ModuleVector:
    """Evaluate x on v: the one-vector case of :func:`act_each`."""
    return ModuleVector(act_each(x, [v.terms], mod)[0])


# the base radix (K, M) of the integer tables: X = 2^K, deg_b < M
_RADIX = (64, 8)


# typed: an AMonomial and an equal BasisKey keep their own entries, so every
# target has the type of its key
@lru_cache(maxsize=None, typed=True)
def _gen_part(op: Gen, key: AMonomial) -> tuple[AMonomial, int | Fraction, bool]:
    """The part of the entry of the generator ``op`` on ``key`` that no
    handle changes, shared by all of them: the target key, A's derivation
    coefficient (``gen_act_amon``'s rule, of which this cache is the module
    path's one copy; 0 where op kills the monomial) and whether the
    paper-printed sign applies (op odd, key even)."""
    terms = gen_act_amon(op, key)
    return key.shifted(op.degree), terms[0][1] if terms else 0, bool(op.parity and not key.eps)


class _ActionTable(dict):
    """A handle's table at ``radix``: (op, key) -> (target, n, ((target,
    c),)), or () where op kills key (see the module docstring).  On a
    numeric handle ``params`` are the ints D lambda and D b, ``den`` is D
    and ``scale`` is None.  With a formal parameter ``params`` are the
    parameters, ``den`` is 1 and ``scale`` is the polynomial D P as a
    Scalar over 1, with P the product of the parameters' distinct
    denominators (each the term table ``den`` of a parameter) and D =
    lcm(2 den(coefficients of P), den(coefficients of P lambda and P b)).
    Every coefficient is alpha lambda + beta b + gamma with integral alpha,
    beta and gamma in Z/2 (``fill``), so every n lies in Z[l, b].  ``unit``
    is E(D P); ``height`` and ``degree`` bound the 1-norm and the degree in
    b of D P and of every n made so far; ``value`` decodes n to a term
    table and divides it by a power of the table ``scale.num``."""

    __slots__ = ("radix", "params", "den", "scale", "unit", "height", "degree")

    def __init__(self, mod: GammaModule, radix: tuple[int, int] | None = None):
        super().__init__()
        self.radix, self.height, self.degree = radix or _RADIX, 0, 0
        params = tuple(p.numeric_value() if p.is_numeric() else p for p in (mod.lam, mod.b))
        if not any(isinstance(p, Scalar) for p in params):
            self.den = self.unit = math.lcm(2, *(p.denominator for p in params))
            self.params = tuple(p.numerator * (self.den // p.denominator) for p in params)
            self.scale = None
            return
        # the distinct denominators, as Scalars over 1: a table is no set member
        poly = ONE
        for d in {Scalar(p.den, {(0, 0): 1}) for p in params if isinstance(p, Scalar)}:
            poly = poly * d
        den = math.lcm(*(2 * c.denominator for c in poly.num.values()),
                       *(c.denominator for p in params for c in (poly * p).num.values()))
        self.params, self.den, self.scale = params, 1, poly * den
        self.unit = self._encoded(1)

    def _encoded(self, c) -> int:
        """E(D P c), with ``height`` and ``degree`` raised to cover D P c."""
        f = (self.scale * c).num
        self.height = max(self.height, sum(map(abs, f.values())))
        self.degree = max(self.degree, max(e[1] for e in f))
        return _encode(f, self.radix)

    def fill(self, mod: GammaModule, op, key: BasisKey) -> tuple:
        """Make the entry of the generator or A-monomial ``op`` on ``key``
        in the table of ``mod``."""
        if not mod.admissible(key):
            raise ModuleError(f"key {key.render()} not admissible for {mod.descriptor()}")
        # num is den c: D c on a numeric handle, else c in the type of the parameters
        den = self.den
        if not isinstance(op, Gen):
            if not mod.a_acts(op):
                raise ModuleError(f"A-monomial {op.render()} does not act on "
                                  f"{mod.descriptor()}: it does not preserve the cut")
            target = op.times(key)
            num = den if target else 0
        elif not mod.algebra_mode.admits(op):
            raise ModuleError(f"generator {op.render()} not admissible on {mod.descriptor()} "
                              f"in mode {mod.algebra_mode.value}")
        else:
            # the derivation action of g on A plus multiplication by mu_g: an
            # int on a numeric handle (D is even and A's coefficient lies in Z/2)
            target, a, printed = _gen_part(op, key)
            num = 0
            if op.kind != "C":
                num = mod.jet_term(op, key)
                if a:
                    num = num + (a if den == 1 else den // a.denominator * a.numerator)
                if printed and mod.convention is SignConvention.PAPER_PRINTED:
                    num = -num
        # T is out-closed, so the target lies in T; one in S is projected away
        if not num or (mod._cut and target in mod.sub):
            entry = ()
        elif den > 1:
            c = num // den if num % den == 0 else Fraction(num, den)
            entry = (target, num, ((target, c),))
        else:
            c = _rational(num)
            c = num if c is None else c
            entry = (target, self._encoded(c), ((target, c),))
        self[op, key] = entry
        return entry

    def value(self, n: int, r: int, s: int):
        """E^-1(n) / (s (D P)^r), the coefficient ``n`` encodes, under the
        coefficient rule on a numeric handle and as a Scalar otherwise."""
        if self.scale is None:
            s *= self.den ** r
            return n // s if n % s == 0 else Fraction(n, s)
        den = {(0, 0): s}
        for _ in range(r):
            den = _mul(den, self.scale.num)
        return Scalar(_decode(n, self.radix), den)


def _fold(chains: list, vecs: list, mod: GammaModule, table: _ActionTable | None = None) -> list:
    """The coefficient tables of sum_t c_t (a_t (x) g_1 ... g_r) applied to
    each table of ``vecs``, for the (ops, c_t) pairs ``chains`` with the
    factors in the order they act, ops = (g_r, ..., g_1, a_t): one fold
    over the table of ``mod`` (or ``table``); see the module docstring."""
    table = mod._table if table is None else table
    get, fill = table.get, table.fill
    longest = max((len(ops) for ops, _ in chains), default=0)
    pads = [table.unit ** (longest - r) for r in range(longest + 1)]
    # the rational coefficients over common denominators; a Scalar enters as 1
    # and multiplies the decoded result of its group.  A start entry carries
    # the groups of its vector, (term Scalar or None, vector Scalar or None)
    # -> {target: n}; ``norm`` is the largest 1-norm of a vector
    lt = math.lcm(*(c.denominator for _, c in chains if not isinstance(c, Scalar)))
    start, dens, norm = [], [], 0
    for vec in vecs:
        groups: dict = {}
        lv = math.lcm(*(c.denominator for c in vec.values() if not isinstance(c, Scalar)))
        start += [(k, lv, c, groups) if isinstance(c, Scalar)
                  else (k, lv // c.denominator * c.numerator, None, groups) for k, c in vec.items()]
        dens.append((lt * lv, groups))
        norm = max(norm, sum(abs(n) for _, n, _, _ in start[len(start) - len(vec):]))
    rational = [(k, n, groups.setdefault((None, s), {})) for k, n, s, groups in start]
    weight = 0
    for ops, c in chains:
        if isinstance(c, Scalar):
            w = lt
            front = [(k, w * n, groups.setdefault((c, s), {})) for k, n, s, groups in start]
        else:
            w = lt // c.denominator * c.numerator
            front = [(k, w * n, acc) for k, n, acc in rational]
        weight += abs(w)
        if not ops:  # the unit element consults no entry
            for key, _, _ in front:
                if not mod.admissible(key):
                    raise ModuleError(f"key {key.render()} not admissible for {mod.descriptor()}")
        for op in ops:  # factor by factor over the whole front: errors keep their order
            step = []
            for key, n, acc in front:
                e = get((op, key))
                if e is None:
                    e = fill(mod, op, key)
                if e:
                    step.append((e[0], n * e[1], acc))
            front = step
        pad = pads[len(ops)]
        for key, n, acc in front:
            acc[key] = acc.get(key, 0) + n * pad
    if table.scale is not None:
        # every output is at most weight * norm * height^longest in 1-norm and
        # of degree at most degree * longest in b; outside the encoding, the
        # fold is redone at a radix that holds it
        bound = weight * norm * table.height ** longest
        degree = table.degree * longest
        if bound >> (table.radix[0] - 1) or degree >= table.radix[1]:
            return _fold(chains, vecs, mod, _ActionTable(mod, (bound.bit_length() + 1, degree + 1)))
    outs: list = [{} for _ in dens]
    for (s, groups), out in zip(dens, outs):
        for outers, acc in groups.items():
            for key, n in acc.items():
                if n:
                    value = table.value(n, longest, s)
                    for outer in outers:
                        if outer is not None:
                            value = value * outer
                    accumulate(out, key, value)
    return outs


def module_axiom_residuals(x: Gen, y: Gen, keys: list, mod: GammaModule) -> list[dict]:
    """Residual table of the module axiom on the basis vector of each key:

        (x (y v) - (-1)^{|x||y|} y (x v)) - [x, y] v

    The representation law (``algebra.rep_residual``) over the free table
    of op chains states it as (ops, c) pairs with the ops in acting order,
    {(y, x): 1, (x, y): -(-1)^{|x||y|}, ([x, y],): -1}, and ``_fold``
    evaluates them on all the keys at once, as ``act_each`` does.  Zero for
    every pair exactly when the action is a representation.  The central
    charge is zero on these modules, so [x, y] is read without C.
    """
    xy = algebra.bracket_basis(x, y, False)
    chains = rep_residual(lambda op, ops: ((ops + (op,), 1),), x, y, xy, (), x.parity and y.parity)
    return _fold(list(chains.items()), [{key: 1} for key in keys], mod)


def module_axiom_residual(x: Gen, y: Gen, key: BasisKey, mod: GammaModule) -> ModuleVector:
    """The module axiom on one basis vector: the one-key case of
    :func:`module_axiom_residuals`."""
    return ModuleVector(module_axiom_residuals(x, y, [key], mod)[0])


def parse_module_descriptor(
    text: str,
    lam_value: Fraction | None = None,
    b_value: Fraction | None = None,
    algebra_mode: AlgebraMode | None = None,
    convention: SignConvention = SignConvention.CORRECTED,
) -> GammaModule:
    """Parse descriptors like gamma(1/3,1/4), gamma+(0,b), gamma'(0,1/2),
    pi(gamma'(0,0)).  The symbols l and b stand for formal parameters and
    may be pinned by lam_value / b_value."""
    s, flips = text.strip(), 0
    while s.startswith("pi(") and s.endswith(")"):
        s = s[3:-1].strip()
        flips += 1
    head, _, inner = s.partition("(")
    if head not in {f.value for f in Family} or not inner.endswith(")"):
        raise ModuleError(f"unrecognized module descriptor {text!r}")
    family, parts = Family(head), inner[:-1].split(",")
    if len(parts) != 2:
        raise ModuleError(f"descriptor needs two parameters: {text!r}")

    def param(tok: str, override, symbol: str, formal: Scalar) -> Scalar:
        tok = tok.strip()
        if tok == symbol:
            return formal if override is None else Scalar.of(override)
        if tok in ("l", "b"):
            raise ModuleError(f"symbol {tok!r} in the wrong parameter slot of {text!r}")
        if override is not None:
            raise ModuleError(f"{text!r} fixes {tok!r}; only a symbol can be overridden")
        try:
            return Scalar.of(parse_rational(tok))
        except (ValueError, ZeroDivisionError):
            raise ModuleError(f"malformed rational {tok!r} in {text!r}") from None

    lam_s, b_s = param(parts[0], lam_value, "l", LAMBDA), param(parts[1], b_value, "b", B)
    # a half-line cut lives over the contact subalgebra
    mode = algebra_mode or (AlgebraMode.KPLUS if family in _CUTS else AlgebraMode.KHAT)
    if family is Family.GAMMA_PRIME:
        mod = gamma_prime(lam_s, b_s, mode, convention)
    else:
        mod = GammaModule(lam_s, b_s, family, *_CUTS.get(family, (NOTHING, EVERYTHING)),
                          convention, mode)
    return parity_change(mod) if flips % 2 else mod
