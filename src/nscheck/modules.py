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
the formal parameters; everything stays symbolic in that case.

Every key move is one degree rule: t^k xi^eps has degree k + eps/2, and
an element of degree d moves it to the key of degree k + eps/2 + d
(a key is an A-monomial, so this is ``AMonomial.shifted``).  The weight of a key is lambda + b plus its
degree.  The module axiom (:func:`module_axiom_residual`) is the one
representation law ``algebra.rep_residual`` that the structural suites check.

Families:

* ``GAMMA``        - the full family over any algebra mode (center acts 0);
* ``GAMMA_PLUS``   - the submodule on keys k >= 0 at lambda = 0 (contact
  mode only; it is a module over A+ and the contact subalgebra);
* ``GAMMA_MINUS``  - the quotient by GAMMA_PLUS: keys k <= -1, action
  coefficients targeting k >= 0 projected away;
* ``GAMMA_PRIME``  - an excluded-key sub or quotient at the reducibility
  locus (integral lambda with b in {0, 1/2}); the excluded key is the key
  of weight 0.

The action contract: :func:`act` extends the basis-level actions
(``GammaModule.gen_action`` and ``amon_action``) linearly with
``algebra.extend``, folding each term's factors on plain coefficient
tables, and builds exactly one ModuleVector per call, its result.

The handle contract: a :class:`GammaModule` is one frozen record that
checks its family rules when it is built, by the constructor or by
``dataclasses.replace``, so an invalid handle cannot exist.  It memoises
its basis-level action itself: the cache lives and dies with the handle,
and equal handles do not share one.  Errors are never cached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial

from .algebra import (
    A_ONE,
    AElement,
    AMonomial,
    AlgebraMode,
    Combination,
    Gen,
    HalfInt,
    LieElement,
    bracket_basis,
    extend,
    gen_act_amon,
    jet_coefficient,
    rep_residual,
)
from .enveloping import SmashElement
from .scalars import B, LAMBDA, ONE, Scalar, parse_rational


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


class ExclusionRole(enum.Enum):
    SUB = "sub"
    QUOTIENT = "quotient"


class BasisKey(AMonomial):
    """Key (k, eps) for the basis vector t^k xi^eps: an A-monomial, so it
    has A's degree rule (``degree``, ``shifted``, ``times``)."""

    def render(self) -> str:
        return f"t^{self.k}" + (" xi" if self.eps else "")


# the basis-level action: at most one (target key, coefficient) pair
Action = tuple[tuple[BasisKey, Scalar], ...]


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
    """Finite Scalar combination of basis keys (no mode)."""

    __slots__ = ()

    def _render_term(self, key: BasisKey, cs: str) -> str:
        return f"{cs} * {key.render()}"

    @staticmethod
    def basis(key: BasisKey, coeff=1) -> "ModuleVector":
        return ModuleVector({key: Scalar.of(coeff)})


@dataclass(frozen=True)
class GammaModule:
    """One member of the weight-module family, checked on construction;
    see the module docstring for the handle contract."""

    lam: Scalar
    b: Scalar
    family: Family = Family.GAMMA
    excluded: tuple[BasisKey, ExclusionRole] | None = None
    convention: SignConvention = SignConvention.CORRECTED
    algebra_mode: AlgebraMode = AlgebraMode.KHAT
    parity_flipped: bool = False
    _actions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = self.family
        if fam in (Family.GAMMA_PLUS, Family.GAMMA_MINUS):
            if not self.lam.is_zero():
                raise ModuleError(f"{fam.value} requires lambda = 0, got {self.lam.render()}")
            if self.algebra_mode is not AlgebraMode.KPLUS:
                raise ModuleError(f"{fam.value} is a contact-subalgebra module; use kplus mode")
        if self.excluded is not None:
            if fam is not Family.GAMMA_PRIME:
                raise ModuleError("excluded keys are reserved for the gamma' family")
            _validate_exclusion(self)

    def is_numeric(self) -> bool:
        return self.lam.is_numeric() and self.b.is_numeric()

    def admissible(self, key: BasisKey) -> bool:
        if self.family is Family.GAMMA_PLUS and key.k < 0:
            return False
        if self.family is Family.GAMMA_MINUS and key.k >= 0:
            return False
        if self.excluded is not None and key == self.excluded[0]:
            return False
        return True

    def vector_parity(self, key: BasisKey) -> int:
        return key.eps ^ (1 if self.parity_flipped else 0)

    def gen_action(self, gen: Gen, key: BasisKey) -> Action:
        """Action of a basis generator on a basis vector: at most one
        target key with its exact coefficient, after family filtering."""
        out = self._actions.get((gen, key))
        if out is None:
            out = self._actions[gen, key] = self._gen_action_raw(gen, key)
        return out

    def _gen_action_raw(self, gen: Gen, key: BasisKey) -> Action:
        if not self.admissible(key):
            raise ModuleError(f"key {key.render()} not admissible for {self.descriptor()}")
        if not self.algebra_mode.admits(gen):
            raise ModuleError(
                f"generator {gen.render()} not admissible on {self.descriptor()} "
                f"in mode {self.algebra_mode.value}"
            )
        if gen.kind == "C":
            return ()
        # the derivation action of g on A plus multiplication by mu_g
        coeff = self.jet_term(gen, key)
        for _, c in gen_act_amon(gen, key):
            coeff = coeff + c
        if gen.parity and not key.eps and self.convention is SignConvention.PAPER_PRINTED:
            coeff = -coeff
        return self._filter(coeff, key.shifted(gen.degree))

    def jet_term(self, gen: Gen, mono: AMonomial) -> Scalar:
        """The coefficient of mu_g * mono (``algebra.jet_coefficient``)."""
        return Scalar.of(jet_coefficient(gen, mono, self.lam, self.b))

    def amon_action(self, mono: AMonomial, key: BasisKey) -> Action:
        """Multiplication action of an A-monomial."""
        if not self.admissible(key):
            raise ModuleError(f"key {key.render()} not admissible for {self.descriptor()}")
        if self.family in (Family.GAMMA_PLUS, Family.GAMMA_MINUS) and mono.k < 0:
            raise ModuleError(
                f"A-monomial {mono.render()} does not act on {self.descriptor()}: "
                "only the polynomial coefficient algebra does"
            )
        if self.family is Family.GAMMA_PRIME and self.excluded is not None and mono != AMonomial(0, 0):
            raise ModuleError(
                f"the coefficient algebra does not act on the sub-quotient {self.descriptor()}"
            )
        prod = mono.times(key)
        if prod is None:
            return ()
        return self._filter(ONE, prod)

    def _filter(self, coeff: Scalar, target: BasisKey) -> Action:
        if coeff.is_zero():
            return ()
        if self.family is Family.GAMMA_PLUS and target.k < 0:
            raise ModuleError(
                f"nonzero coefficient escapes the submodule at {target.render()}"
            )
        if self.family is Family.GAMMA_MINUS and target.k >= 0:
            return ()  # projected away by the quotient
        if self.excluded is not None and target == self.excluded[0]:
            if self.excluded[1] is ExclusionRole.QUOTIENT:
                return ()
            raise ModuleError(
                f"nonzero coefficient into excluded key {target.render()} of a sub-type module"
            )
        return ((target, coeff),)

    def weight(self, key: BasisKey) -> Scalar:
        """The diagonal eigenvalue l + b + k + eps/2 of the grading operator."""
        return self.lam + self.b + key.degree.as_fraction()

    def descriptor(self) -> str:
        body = f"{self.family.value}({self.lam.render()},{self.b.render()})"
        return f"pi({body})" if self.parity_flipped else body

    def __repr__(self):
        return f"GammaModule({self.descriptor()}, {self.algebra_mode.value})"


# family validation probes: action coefficients are affine in the generator
# index, so vanishing at three consecutive indices decides identical vanishing
_PROBE = 3
_PROBE_GENS = [g for n in range(-_PROBE, _PROBE + 1)
               for g in (Gen("L", HalfInt(2 * n)), Gen("G", HalfInt(2 * n + 1)))]


def edge_coeffs(mod: GammaModule, key: BasisKey, gens) -> tuple[list[Scalar], list[Scalar]]:
    """Nonzero coefficients of the edges out of and into ``key`` along the
    generators of ``gens`` that the algebra mode admits, read on the plain
    twin gamma(lambda, b) so that no family filtering hides an edge."""
    plain = replace(mod, family=Family.GAMMA, excluded=None)
    outs, ins = [], []
    for g in gens:
        if mod.algebra_mode.admits(g):
            outs += [c for _, c in plain.gen_action(g, key)]
            ins += [c for _, c in plain.gen_action(g, key.shifted(-g.degree))]
    return outs, ins


def _validate_exclusion(mod: GammaModule) -> None:
    key, role = mod.excluded
    outs, ins = edge_coeffs(mod, key, _PROBE_GENS)
    if role is ExclusionRole.QUOTIENT and outs:
        raise ModuleError(
            f"excluded key {key.render()} does not span an invariant line; "
            "quotient-type exclusion is invalid here"
        )
    if role is ExclusionRole.SUB and ins:
        if not outs:
            raise ModuleError(
                f"excluded key {key.render()} spans an invariant line; "
                "the exclusion role must be \"quotient\", not \"sub\""
            )
        raise ModuleError(
            f"complement of {key.render()} is not invariant; "
            "sub-type exclusion is invalid here"
        )


def gamma(lam, b, algebra_mode: AlgebraMode = AlgebraMode.KHAT,
          convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    return GammaModule(Scalar.of(lam), Scalar.of(b), Family.GAMMA, None, convention, algebra_mode)


def gamma_plus(b, convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    return GammaModule(Scalar.of(0), Scalar.of(b), Family.GAMMA_PLUS, None, convention,
                       AlgebraMode.KPLUS)


def gamma_minus(b, convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    return GammaModule(Scalar.of(0), Scalar.of(b), Family.GAMMA_MINUS, None, convention,
                       AlgebraMode.KPLUS)


def gamma_prime(lam, b, algebra_mode: AlgebraMode = AlgebraMode.KHAT,
                convention: SignConvention = SignConvention.CORRECTED) -> GammaModule:
    """Gamma'(lambda, b): the distinguished simple sub-quotient.

    At the reducibility locus (integral lambda, b in {0, 1/2}) the excluded
    key and its role are derived; elsewhere the module coincides with
    gamma(lambda, b).
    """
    lam_s, b_s = Scalar.of(lam), Scalar.of(b)
    excluded = None
    if lam_s.is_numeric() and b_s.is_numeric():
        lv, bv = lam_s.numeric_value(), b_s.numeric_value()
        if lv.denominator == 1 and bv in (0, Fraction(1, 2)):
            # the key of weight lambda + b + degree = 0
            key = BasisKey(0, 0).shifted(-HalfInt.of(lv + bv))
            excluded = (key, ExclusionRole.QUOTIENT if bv == 0 else ExclusionRole.SUB)
    return GammaModule(lam_s, b_s, Family.GAMMA_PRIME, excluded, convention, algebra_mode)


def parity_change(mod: GammaModule) -> GammaModule:
    """The parity-change twin: same vectors, same action, flipped parity."""
    return replace(mod, parity_flipped=not mod.parity_flipped)


def act(x, v: ModuleVector, mod: GammaModule) -> ModuleVector:
    """Evaluate x on v.  x may be a Gen, LieElement, AElement or
    SmashElement; smash terms apply PBW factors right-to-left and the
    A-part last; see the module docstring for the action contract."""
    if isinstance(x, Gen):
        return ModuleVector(_image((A_ONE, (x,)), v.terms, mod))
    if isinstance(x, LieElement):
        terms = (((A_ONE, (g,)), c) for g, c in x.terms.items())
    elif isinstance(x, AElement):
        terms = (((m, ()), c) for m, c in x.terms.items())
    elif isinstance(x, SmashElement):
        terms = x.terms.items()
    else:
        raise ModuleError(f"cannot act with object of type {type(x).__name__}")
    return ModuleVector(extend(terms, lambda term: _image(term, v.terms, mod).items()))


def _image(term: tuple[AMonomial, tuple[Gen, ...]], vec: dict, mod: GammaModule) -> dict:
    """The coefficient table of (a (x) g_1 ... g_r) applied to the table
    ``vec``: the factors right-to-left, each extended linearly from the
    basis-level action that ``mod`` looks up at call time."""
    a, pbw = term
    for g in reversed(pbw):
        vec = extend(vec.items(), partial(mod.gen_action, g))
    if a != A_ONE:
        vec = extend(vec.items(), partial(mod.amon_action, a))
    return vec


def module_axiom_residual(x: Gen, y: Gen, key: BasisKey, mod: GammaModule) -> ModuleVector:
    """Residual of the module axiom on a basis vector, the representation
    law (``algebra.rep_residual``) of the algebra acting on ``mod``:

        (x (y v) - (-1)^{|x||y|} y (x v)) - [x, y] v

    Zero for every pair exactly when the action is a representation.
    """
    mode = mod.algebra_mode
    xy = _acting_part(bracket_basis(x, y, mode.has_center), mode)
    return rep_residual(lambda e, w: act(e, w, mod), x, y, xy, ModuleVector.basis(key),
                        x.parity and y.parity)


@lru_cache(maxsize=None)
def _acting_part(terms: tuple, mode: AlgebraMode) -> LieElement:
    """The element with structure constants ``terms``, without C: the central
    charge is zero on these modules.  Memoised on the constants themselves,
    so that a changed structure table never meets a stale entry."""
    return LieElement({g: Scalar.of(c) for g, c in terms if g.kind != "C"}, mode)


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
    s = text.strip()
    flips = 0
    while s.startswith("pi(") and s.endswith(")"):
        s = s[3:-1].strip()
        flips += 1
    for prefix, family in (
        ("gamma+", Family.GAMMA_PLUS),
        ("gamma-", Family.GAMMA_MINUS),
        ("gamma'", Family.GAMMA_PRIME),
        ("gamma", Family.GAMMA),
    ):
        if s.startswith(prefix + "(") and s.endswith(")"):
            inner = s[len(prefix) + 1 : -1]
            break
    else:
        raise ModuleError(f"unrecognized module descriptor {text!r}")
    parts = inner.split(",")
    if len(parts) != 2:
        raise ModuleError(f"descriptor needs two parameters: {text!r}")

    def param(tok: str, override, formal: Scalar) -> Scalar:
        tok = tok.strip()
        if tok in ("l", "b"):
            want = LAMBDA if tok == "l" else B
            if want is not formal:
                raise ModuleError(f"symbol {tok!r} in the wrong parameter slot of {text!r}")
            return Scalar.of(override) if override is not None else formal
        try:
            return Scalar.of(parse_rational(tok))
        except (ValueError, ZeroDivisionError):
            raise ModuleError(f"malformed rational {tok!r} in {text!r}") from None

    lam_s = param(parts[0], lam_value, LAMBDA)
    b_s = param(parts[1], b_value, B)

    if family is Family.GAMMA_PRIME:
        mod = gamma_prime(lam_s, b_s, algebra_mode or AlgebraMode.KHAT, convention)
    else:
        contact = family in (Family.GAMMA_PLUS, Family.GAMMA_MINUS)
        default = AlgebraMode.KPLUS if contact else AlgebraMode.KHAT
        mod = GammaModule(lam_s, b_s, family, None, convention, algebra_mode or default)
    for _ in range(flips):
        mod = parity_change(mod)
    return mod
