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
check, stated on basis keys over the memoised ``GammaModule.gen_action``.

Sub-quotients: a module is gamma(lambda, b) with a cut, two out-closed
key sets S and T (:class:`KeySet`: no or all keys, finite, cofinite, or a
degree half-line), checked on construction (:func:`_check_out_closed`).
Its vectors are the keys of T outside S (the sub-quotient T/(S cap T)), an
action target in S is projected away, and an A-monomial acts iff it maps
S into S and T into T.  The label only names the module: ``gamma`` has no
cut; ``gamma+`` (T) and ``gamma-`` (S) cut at the keys k >= 0 over kplus;
``gamma'`` cuts at the key of weight 0 where its edges allow it.

The action contract: :func:`act` evaluates an element on a vector by one
fold in machine integers, the same for every handle.  A handle keeps an
integer table of its basis-level actions (``GammaModule.gen_action`` and
``amon_action``): for the stored coefficient c the pair (target, n) with
n = E(D P c), where D P clears every denominator (on a numeric handle D is
``_den`` and P = 1) and E is the Kronecker encoding of ``scalars``, the
identity on an integer.  For each term c_t (a (x) g_1 ... g_r) and each
vector key the fold multiplies the entries along the factors, right to
left and the A-part last, and sums the products over one common
denominator, (D P)^R times the lcm of the denominators of the rational
coefficients, R the longest term.  It builds one Fraction (numeric) or one
decoded Scalar (otherwise) per output coefficient; a Scalar coefficient of
a term or of the vector multiplies only that result.  The fold bounds the
1-norm and the degree in b of every output, and redoes itself at a radix
that holds an output outside the encoding, so a decoded coefficient is
exact.  It builds exactly one ModuleVector per call, its result.

The handle contract: a :class:`GammaModule` is one frozen record that
checks its cut when it is built, by the constructor or by
``dataclasses.replace``, so an invalid handle cannot exist.  It memoises
its basis-level action itself: the cache lives and dies with the handle,
and equal handles do not share one.  Errors are never cached.  It holds
its parameters once more in ``_params`` over the denominator ``_den``: the
ints D lambda and D b on a numeric handle; with a formal parameter D = 1
and each is a Fraction when numeric and the Scalar otherwise.  It decides
once, in ``_cut``, whether it has a cut, so an uncut handle admits every
key without a membership test.  These three and its integer table
``_ints`` (the action contract, filled on use like the action cache) are
set on construction, so ``dataclasses.replace`` recomputes them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

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
    ParamPoly,
    Scalar,
    _decode,
    _encode,
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
    def basis(key: BasisKey, coeff=1) -> "ModuleVector":
        return ModuleVector({key: coeff})


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
    _actions: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _params: tuple = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)
    _cut: bool = field(init=False, repr=False, compare=False)
    _ints: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params = tuple(p.numeric_value() if p.is_numeric() else p for p in (self.lam, self.b))
        den = 1
        if not any(isinstance(p, Scalar) for p in params):
            den = math.lcm(2, *(p.denominator for p in params))
            params = tuple(p.numerator * (den // p.denominator) for p in params)
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_cut", self.sub != NOTHING or self.top != EVERYTHING)
        object.__setattr__(self, "_ints", _IntTable(self))
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
        return self._den > 1

    def admissible(self, key: BasisKey) -> bool:
        return not self._cut or (key in self.top and key not in self.sub)

    def vector_parity(self, key: BasisKey) -> int:
        return key.eps ^ (1 if self.parity_flipped else 0)

    def gen_action(self, gen: Gen, key: BasisKey) -> Action:
        """Action of a basis generator on a basis vector: at most one
        target key with its exact coefficient, after the cut."""
        out = self._actions.get((gen, key))
        if out is None:
            out = self._actions[gen, key] = self._gen_action_raw(gen, key)
        return out

    def _gen_action_raw(self, gen: Gen, key: BasisKey) -> Action:
        if not self.admissible(key):
            raise ModuleError(f"key {key.render()} not admissible for {self.descriptor()}")
        if not self.algebra_mode.admits(gen):
            raise ModuleError(f"generator {gen.render()} not admissible on {self.descriptor()} "
                              f"in mode {self.algebra_mode.value}")
        if gen.kind == "C":
            return ()
        # the derivation action of g on A plus multiplication by mu_g, times
        # D: an int for a numeric handle (D is even and A's coefficient lies
        # in Z/2), else (D = 1) in the type of the parameters
        den = self._den
        num = self.jet_term(gen, key)
        for _, c in gen_act_amon(gen, key):
            num = num + (c if den == 1 else den // c.denominator * c.numerator)
        if gen.parity and not key.eps and self.convention is SignConvention.PAPER_PRINTED:
            num = -num
        if den > 1:
            coeff = num // den if num % den == 0 else Fraction(num, den)
        else:
            q = _rational(num)
            coeff = num if q is None else q
        return self._filter(coeff, key.shifted(gen.degree))

    def jet_term(self, gen: Gen, mono: AMonomial) -> Scalar | int:
        """D times the coefficient of mu_g * mono (``algebra.jet_coefficient``,
        which is linear in lambda and b, at ``_params``): an int for a numeric
        handle, else (D = 1) a Scalar or 0."""
        return jet_coefficient(gen, mono, *self._params)

    def amon_action(self, mono: AMonomial, key: BasisKey) -> Action:
        """Multiplication action of an A-monomial, memoised like ``gen_action``."""
        out = self._actions.get((mono, key))
        if out is None:
            out = self._actions[mono, key] = self._amon_action_raw(mono, key)
        return out

    def _amon_action_raw(self, mono: AMonomial, key: BasisKey) -> Action:
        if not self.admissible(key):
            raise ModuleError(f"key {key.render()} not admissible for {self.descriptor()}")
        if not self.a_acts(mono):
            raise ModuleError(f"A-monomial {mono.render()} does not act on {self.descriptor()}: "
                              "it does not preserve the cut")
        prod = mono.times(key)
        return () if prod is None else self._filter(1, prod)

    def _filter(self, coeff: int | Fraction | Scalar, target: BasisKey) -> Action:
        # T is out-closed, so the target lies in T; one in S is projected away
        if not coeff or (self._cut and target in self.sub):
            return ()
        return ((target, coeff),)

    def descriptor(self) -> str:
        body = f"{self.family.value}({self.lam.render()},{self.b.render()})"
        return f"pi({body})" if self.parity_flipped else body

    def __repr__(self):
        return f"GammaModule({self.descriptor()}, {self.algebra_mode.value})"


# the generators each mode admits, three or more indices of each kind (_check_out_closed)
_PROBE_GENS = {mode: basis(3, mode) for mode in AlgebraMode}


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
    if mod.is_numeric():
        weight0 = mod.lam.numeric_value() + mod.b.numeric_value()
    else:  # l + b may still be numeric, as for gamma'(l, 1 - l)
        weight0 = _rational(mod.lam + mod.b)
        if weight0 is None:
            return mod
    if (2 * weight0).denominator != 1:
        return mod
    key = BasisKey(0, 0).shifted(-HalfInt.of(weight0))
    outs, ins = edge_coeffs(mod, key, _PROBE_GENS[mod.algebra_mode])
    if not outs:
        return replace(mod, sub=KeySet(frozenset({key})))
    return mod if ins else replace(mod, top=KeySet(frozenset({key}), cofinite=True))


def parity_change(mod: GammaModule) -> GammaModule:
    """The parity-change twin: same vectors, same action, flipped parity."""
    return replace(mod, parity_flipped=not mod.parity_flipped)


def act(x, v: ModuleVector, mod: GammaModule) -> ModuleVector:
    """Evaluate x on v.  x may be a Gen, LieElement, AElement or
    SmashElement; smash terms apply PBW factors right-to-left and the
    A-part last; see the module docstring for the action contract."""
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
    return ModuleVector(_fold(chains, v.terms, mod))


# the base radix (K, M) of the integer tables: X = 2^K, deg_b < M
_RADIX = (64, 8)


class _IntTable(dict):
    """A handle's integer table at ``radix``: (op, key) -> (target, n), or
    () where op kills key, with n = E(D P c) (``scalars._encode``) for the
    coefficient c of ``gen_action`` or ``amon_action``.  On a numeric
    handle D is ``_den``, P = 1 and ``scale`` is None.  With a formal
    parameter ``scale`` is the polynomial D P, with P the product of the
    parameters' distinct denominators and D = lcm(2 den(coefficients of
    P), den(coefficients of P lambda and P b)).  Every coefficient is
    alpha lambda + beta b + gamma with integral alpha, beta and gamma in
    Z/2 (``GammaModule._gen_action_raw``), so every entry lies in Z[l, b].
    ``unit`` is E(D P); ``height`` and ``degree`` bound the 1-norm and the
    degree in b of D P and of every entry made so far."""

    __slots__ = ("radix", "den", "scale", "unit", "height", "degree")

    def __init__(self, mod: GammaModule, radix: tuple[int, int] | None = None):
        super().__init__()
        self.radix, self.height, self.degree = radix or _RADIX, 0, 0
        self.den, self.scale, self.unit = mod._den, None, mod._den
        if mod._den > 1:
            return
        one, poly = ParamPoly({(0, 0): 1}), ONE
        for d in {p.den for p in mod._params if isinstance(p, Scalar)}:
            poly = poly * Scalar(d, one)
        self.den = math.lcm(*(2 * c.denominator for c in poly.num.terms.values()),
                            *(c.denominator for p in mod._params
                              for c in (poly * p).num.terms.values()))
        self.scale = poly * self.den
        self.unit = self._encoded(1)

    def _encoded(self, c) -> int:
        """E(D P c), with ``height`` and ``degree`` raised to cover D P c."""
        f = (self.scale * c).num.terms
        self.height = max(self.height, sum(map(abs, f.values())))
        self.degree = max(self.degree, max(e[1] for e in f))
        return _encode(f, self.radix)

    def fill(self, mod: GammaModule, op, key: BasisKey) -> tuple:
        """The entry of the generator or A-monomial ``op`` on ``key``, from
        the basis-level action of ``mod`` looked up at call time."""
        acts = (mod.gen_action if isinstance(op, Gen) else mod.amon_action)(op, key)
        entry = ()
        if acts:
            ((target, c),) = acts
            n = self.den // c.denominator * c.numerator if self.scale is None else self._encoded(c)
            entry = (target, n)
        self[op, key] = entry
        return entry

    def value(self, n: int, r: int, s: int):
        """E^-1(n) / (s (D P)^r), the coefficient ``n`` encodes, under the
        coefficient rule on a numeric handle and as a Scalar otherwise."""
        if self.scale is None:
            s *= self.den ** r
            return n // s if n % s == 0 else Fraction(n, s)
        den = ParamPoly({(0, 0): s})
        for _ in range(r):
            den = den * self.scale.num
        return Scalar(ParamPoly(_decode(n, self.radix)), den)


def _fold(chains: list, vec: dict, mod: GammaModule, table: _IntTable | None = None) -> dict:
    """The coefficient table of sum_t c_t (a_t (x) g_1 ... g_r) applied to
    the table ``vec``, for the (ops, c_t) pairs ``chains`` with the factors
    in the order they act, ops = (g_r, ..., g_1, a_t): one fold over the
    integer table of ``mod`` (or ``table``); see the module docstring for
    the action contract."""
    table = mod._ints if table is None else table
    get = table.get
    longest = max((len(ops) for ops, _ in chains), default=0)
    pads = [table.unit ** (longest - r) for r in range(longest + 1)]
    # the rational coefficients over common denominators; a Scalar enters
    # as 1 and multiplies the decoded result of its group
    lt = math.lcm(*(c.denominator for _, c in chains if not isinstance(c, Scalar)))
    lv = math.lcm(*(c.denominator for c in vec.values() if not isinstance(c, Scalar)))
    start = [(k, lv, c) if isinstance(c, Scalar) else (k, lv // c.denominator * c.numerator, None)
             for k, c in vec.items()]
    groups: dict = {}  # (term Scalar or None, vector Scalar or None) -> {target: n}
    rational = [(k, n, groups.setdefault((None, s), {})) for k, n, s in start]
    weight = 0
    for ops, c in chains:
        if isinstance(c, Scalar):
            w = lt
            front = [(k, w * n, groups.setdefault((c, s), {})) for k, n, s in start]
        else:
            w = lt // c.denominator * c.numerator
            front = [(k, w * n, acc) for k, n, acc in rational]
        weight += abs(w)
        for op in ops:  # factor by factor over the whole front: errors keep their order
            step = []
            for key, n, acc in front:
                e = get((op, key))
                if e is None:
                    e = table.fill(mod, op, key)
                if e:
                    step.append((e[0], n * e[1], acc))
            front = step
        pad = pads[len(ops)]
        for key, n, acc in front:
            acc[key] = acc.get(key, 0) + n * pad
    if table.scale is not None:
        # every output is at most weight * height^longest in 1-norm and of
        # degree at most degree * longest in b; outside the encoding, the
        # fold is redone at a radix that holds it
        bound = weight * sum(abs(n) for _, n, _ in start) * table.height ** longest
        degree = table.degree * longest
        if bound >> (table.radix[0] - 1) or degree >= table.radix[1]:
            return _fold(chains, vec, mod, _IntTable(mod, (bound.bit_length() + 1, degree + 1)))
    out: dict = {}
    for outers, acc in groups.items():
        for key, n in acc.items():
            if n:
                value = table.value(n, longest, lt * lv)
                for outer in outers:
                    if outer is not None:
                        value = value * outer
                accumulate(out, key, value)
    return out


def module_axiom_residual(x: Gen, y: Gen, key: BasisKey, mod: GammaModule) -> ModuleVector:
    """Residual of the module axiom on a basis vector, the representation
    law (``algebra.rep_residual``) over the handle's basis-level action
    ``mod.gen_action``:

        (x (y v) - (-1)^{|x||y|} y (x v)) - [x, y] v

    Zero for every pair exactly when the action is a representation.  The
    central charge is zero on these modules, so [x, y] is read without C.
    """
    xy = algebra.bracket_basis(x, y, False)
    return ModuleVector(rep_residual(mod.gen_action, x, y, xy, key, x.parity and y.parity))


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
