"""The Neveu-Schwarz superalgebra, its centerless and contact variants,
and the Grassmann coefficient algebra A = C[t, t^-1] (x) Lambda(xi).

Three algebra modes share one code path:

* ``KHAT``  - central extension: basis L(n), G(r), C, with the 2-cocycle
  terms (m^3 - m)/12 and (r^2 - 1/4)/3;
* ``K``     - the quotient by C (no central terms);
* ``KPLUS`` - the contact subalgebra: L(n) for n >= -1, G(r) for r >= -1/2.

:class:`AlgebraMode` is the one mode table: it also names the smash algebra
built on each algebra (``enveloping``), and :func:`basis` enumerates the
generators it admits.

Bracket table on basis elements (Koszul convention, [x,y] = -(-1)^{|x||y|}[y,x]):

    [L_m, L_n] = (n - m) L_{m+n} + delta_{m+n,0} (m^3 - m)/12 C
    [L_m, G_r] = (r - m/2) G_{m+r}
    [G_r, G_s] = -2 L_{r+s} + delta_{r+s,0} (r^2 - 1/4)/3 C

A carries the superderivation action of the algebra and the algebra is in
turn a module over A:

    t^i L_j = L_{i+j},  t^i G_m = G_{m+i},  xi L_j = 1/2 G_{j+1/2},  xi G_m = 0.

These displayed tables are the anchor; the code derives both from one
structure table.  The centerless algebra is itself the rank-one jet module
A_1 (x) C_{-1} (see ``modules``) under

    phi(L_n) = t^n,  phi(G_r) = 2 t^{r-1/2} xi,

so [x, y] is phi^-1 of A's derivation action x o phi(y)
(:func:`gen_act_amon`) plus the jet term mu_x phi(y) at (lambda, b) =
(1, -1) (:func:`jet_coefficient`), and a x is phi^-1(a phi(x)).  The
structure table is thus ``gen_act_amon``'s three rules, mu, phi and the
two central cells.  phi keeps degrees, and every target is the monomial of
the summed degree (:meth:`AMonomial.shifted`).

Four suites check one law, :func:`rep_residual`: rho(x) rho(y) -
(-1)^{|x||y|} rho(y) rho(x) = rho([x, y]), for rho = ad (Jacobi), A # k on
the algebra (compatibility, [v, a] = v o a), the algebra on A (derivation
action) and the algebra on a module (the module axiom, ``modules``).

Every element type of the package (``LieElement`` and ``AElement`` here,
``SmashElement`` and ``ModuleVector`` downstream) is a :class:`Combination`,
an immutable finite Scalar-linear combination of basis keys:

* no zero coefficient is ever stored, so ``is_zero`` is ``not terms``;
* every construction runs the subclass's key admission check;
* ``+`` and ``-`` combine only elements of one type and one ``mode`` (None
  for a type without modes) and raise :class:`AlgebraError` otherwise; the
  type and the mode are part of ``==``;
* ``items`` and ``render`` list the terms in the subclass's canonical order,
  so a rendering is a deterministic function of the value.

:func:`accumulate` is the one merge rule for sparse coefficient tables, and
:func:`extend` the one linear extension of a basis-level table: the module
action, the PBW rewriting and the finite-difference sums are each
``extend`` over plain dicts.  The four bilinear products (:func:`bracket`,
:func:`k_action_on_A`, :func:`A_action_on_k` and
``enveloping.smash_product``) keep their double loops: they multiply the
two coefficients once per pair of keys before the table lookup, and a
shared bilinear helper behind ``bracket`` and ``k_action_on_A`` cost the
``structure`` benchmark workload 2-4 % of its wall time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalars import Scalar


class AlgebraError(ValueError):
    """Mode violations: bad indices, central element misuse, mode mixing."""


def accumulate(table: dict, key, coeff) -> None:
    """Add ``coeff`` into ``table[key]``, dropping the entry when it sums to
    zero.  Coefficients may be Scalars or Fractions: both are falsy exactly
    at zero."""
    cur = table.get(key)
    if cur is not None:
        coeff = cur + coeff
    if coeff:
        table[key] = coeff
    else:
        table.pop(key, None)


def extend(terms, table) -> dict:
    """The linear extension sum_k c_k table(k) of a basis-level table: for
    (k, c_k) pairs ``terms`` and ``table(k)`` giving (target, coefficient)
    pairs, the merged {target: coefficient} (see :func:`accumulate`)."""
    out: dict = {}
    for key, c in terms:
        for target, coeff in table(key):
            accumulate(out, target, c * coeff)
    return out


class Combination:
    """Immutable sparse Scalar-linear combination; see the module docstring.

    Subclasses supply key admission (``_admit``), term order (``_order``)
    and term rendering (``_render_term``).
    """

    __slots__ = ("terms", "mode")
    default_mode = None

    def __init__(self, terms: dict | None = None, mode=None):
        if mode is None:
            mode = self.default_mode
        if terms:
            self._admit(terms, mode)
            terms = {k: c for k, c in terms.items() if c}
        object.__setattr__(self, "terms", terms or {})
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _admit(terms: dict, mode) -> None:
        """Raise AlgebraError unless every key of ``terms`` is admissible."""

    @staticmethod
    def _order(key):
        return key

    @staticmethod
    def _times(cs: str, body: str) -> str:
        """``body`` with a rendered coefficient; 1 and -1 stay implicit."""
        if cs == "1":
            return body
        if cs == "-1":
            return f"-{body}"
        return f"{cs}*{body}"

    def _new(self, terms: dict):
        return type(self)(terms, self.mode)

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int | None:
        """0 or 1 when homogeneous, None when mixed or zero (for keys that
        carry a ``parity``)."""
        ps = {k.parity for k in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def _check_mode(self, other: "Combination") -> None:
        if type(other) is not type(self):
            raise AlgebraError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.mode is not other.mode:
            raise AlgebraError(f"mode mismatch: {self.mode.value} vs {other.mode.value}")

    def __add__(self, other):
        self._check_mode(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Scalar.of(c)
        return self._new({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.mode is other.mode and self.terms == other.terms

    def __hash__(self):
        return hash((self.mode, frozenset(self.terms.items())))

    def items(self) -> list:
        """The terms in canonical order."""
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    def render(self) -> str:
        pieces = []
        for key, c in self.items():
            body = self._render_term(key, c.render_coeff())
            if not pieces:
                pieces.append(body)
            elif body.startswith("-"):
                pieces.append(f" - {body[1:]}")
            else:
                pieces.append(f" + {body}")
        return "".join(pieces) or "0"

    def __repr__(self):
        mode = "" if self.mode is None else f", {self.mode.value}"
        return f"{type(self).__name__}({self.render()}{mode})"


@dataclass(frozen=True, order=True)
class HalfInt:
    """Element of (1/2)Z stored as twice its value."""

    doubled: int

    @staticmethod
    def of(value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if type(value) is int:
            return HalfInt(2 * value)
        if type(value) is not Fraction or value.denominator not in (1, 2):
            raise AlgebraError(f"{value!r} is not an exact half-integer")
        return HalfInt(int(value * 2))

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.doubled + HalfInt.of(other).doubled)

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.doubled - HalfInt.of(other).doubled)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer():
            raise AlgebraError(f"{self.render()} is not an integer")
        return self.doubled // 2

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def as_scalar(self) -> Scalar:
        return Scalar.of(self.as_fraction())

    def render(self) -> str:
        if self.is_integer():
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def half(p: int) -> HalfInt:
    """The half-integer p/2."""
    return HalfInt(p)


class AlgebraMode(enum.Enum):
    KHAT = "khat"
    K = "k"
    KPLUS = "kplus"

    @property
    def has_center(self) -> bool:
        """KHAT keeps C; its smash algebra is U(khat), with no A-part."""
        return self is AlgebraMode.KHAT

    @property
    def a_mode(self) -> "AMode":
        """The coefficient algebra of the smash algebra on this mode."""
        return AMode.APLUS if self is AlgebraMode.KPLUS else AMode.A

    def admits(self, gen: "Gen") -> bool:
        if gen.kind == "C":
            return self.has_center
        if self is AlgebraMode.KPLUS:
            return gen.index.doubled >= -2
        return True

    @staticmethod
    def parse(text: str) -> "AlgebraMode":
        try:
            return AlgebraMode(text)
        except ValueError:
            raise AlgebraError(f"unknown algebra mode {text!r}") from None


class AMode(enum.Enum):
    A = "A"
    APLUS = "A+"

    def admits(self, mono: "AMonomial") -> bool:
        return self is AMode.A or mono.k >= 0


@dataclass(frozen=True)
class Gen:
    """Basis generator: L(n) with n integral, G(r) with r strictly
    half-integral, or the central element C."""

    kind: str  # "L" | "G" | "C"
    index: HalfInt = HalfInt(0)

    def __post_init__(self):
        if self.kind == "L":
            if not self.index.is_integer():
                raise AlgebraError(f"L index must be an integer, got {self.index.render()}")
        elif self.kind == "G":
            if self.index.is_integer():
                raise AlgebraError(f"G index must be strictly half-integral, got {self.index.render()}")
        elif self.kind != "C":
            raise AlgebraError(f"unknown generator kind {self.kind!r}")
        elif self.index.doubled:
            raise AlgebraError(f"the central element C takes no index, got {self.index.render()}")

    @property
    def parity(self) -> int:
        return 1 if self.kind == "G" else 0

    @property
    def degree(self) -> HalfInt:
        """Eigenvalue of ad L_0."""
        return HalfInt(0) if self.kind == "C" else self.index

    def sort_key(self) -> tuple[int, int]:
        # C sorts before everything; then ascending index
        return (0, 0) if self.kind == "C" else (1, self.index.doubled)

    def render(self) -> str:
        if self.kind == "C":
            return "C"
        return f"{self.kind}({self.index.render()})"


def L(n: int) -> Gen:
    return Gen("L", HalfInt.of(n))


def G(r) -> Gen:
    return Gen("G", HalfInt.of(r))


C = Gen("C")


def basis(index_range: int, mode: AlgebraMode = AlgebraMode.KHAT) -> list[Gen]:
    """The generators with |index| <= index_range that ``mode`` admits: C
    first, then the L's and the G's by ascending index."""
    if index_range < 1:
        raise AlgebraError(f"index range must be at least 1, got {index_range}")
    gens = [C] + [L(n) for n in range(-index_range, index_range + 1)]
    gens += [G(half(d)) for d in range(1 - 2 * index_range, 2 * index_range, 2)]
    return [g for g in gens if mode.admits(g)]


@dataclass(frozen=True, order=True)
class AMonomial:
    """Monomial t^k xi^eps of A, ordered by (k, eps); parity equals eps."""

    k: int
    eps: int = 0

    def __post_init__(self):
        if type(self.k) is not int:
            raise AlgebraError(f"t exponent must be an int, got {self.k!r}")
        if self.eps not in (0, 1):
            raise AlgebraError("xi exponent must be 0 or 1")

    @property
    def parity(self) -> int:
        return self.eps

    @property
    def degree(self) -> HalfInt:
        """Eigenvalue k + eps/2 of L_0 acting by superderivation."""
        return HalfInt(2 * self.k + self.eps)

    def shifted(self, by: HalfInt) -> "AMonomial":
        """The monomial of degree ``self.degree + by``, of this one's type."""
        d = 2 * self.k + self.eps + by.doubled
        return type(self)(d // 2, d % 2)

    def times(self, other: "AMonomial") -> "AMonomial | None":
        """Product in A, of ``other``'s type; None encodes xi*xi = 0."""
        if self.eps and other.eps:
            return None
        return other.shifted(self.degree)

    def render(self) -> str:
        if self.eps == 0:
            if self.k == 0:
                return "1"
            return "t" if self.k == 1 else f"t^{self.k}"
        if self.k == 0:
            return "xi"
        head = "t" if self.k == 1 else f"t^{self.k}"
        return f"{head}*xi"


A_ONE = AMonomial(0, 0)
XI = AMonomial(0, 1)


class LieElement(Combination):
    """Finite Scalar-linear combination of basis generators in one mode."""

    __slots__ = ()

    @staticmethod
    def _admit(terms: dict, mode: AlgebraMode) -> None:
        for g in terms:
            if not mode.admits(g):
                raise AlgebraError(f"generator {g.render()} not admissible in mode {mode.value}")

    @staticmethod
    def _order(g: Gen) -> tuple[int, int]:
        # L's by index, then G's by index, then C last
        if g.kind == "L":
            return (0, g.index.doubled)
        if g.kind == "G":
            return (1, g.index.doubled)
        return (2, 0)

    def _render_term(self, g: Gen, cs: str) -> str:
        return self._times(cs, g.render())

    @staticmethod
    def zero(mode: AlgebraMode) -> "LieElement":
        return LieElement({}, mode)

    @staticmethod
    def basis(gen: Gen, mode: AlgebraMode, coeff=1) -> "LieElement":
        return LieElement({gen: Scalar.of(coeff)}, mode)


class AElement(Combination):
    """Finite Scalar-linear combination of A-monomials."""

    __slots__ = ()
    default_mode = AMode.A

    @staticmethod
    def _admit(terms: dict, mode: AMode) -> None:
        for m in terms:
            if not mode.admits(m):
                raise AlgebraError(f"monomial {m.render()} not admissible in mode {mode.value}")

    def _render_term(self, m: AMonomial, cs: str) -> str:
        mono = m.render()
        return cs if mono == "1" else self._times(cs, mono)

    @staticmethod
    def monomial(k: int, eps: int = 0, mode: AMode = AMode.A, coeff=1) -> "AElement":
        return AElement({AMonomial(k, eps): Scalar.of(coeff)}, mode)


def _phi(g: Gen) -> tuple[AMonomial, int]:
    """(m, s) with phi(g) = s m: the monomial of g's degree and parity."""
    return A_ONE.shifted(g.degree), 1 + g.parity


def _phi_inv(m: AMonomial) -> tuple[Gen, int]:
    """(g, s) with phi(g) = s m."""
    return Gen("G" if m.eps else "L", m.degree), 1 + m.eps


@lru_cache(maxsize=None)
def bracket_basis(x: Gen, y: Gen, with_center: bool) -> tuple[tuple[Gen, Fraction], ...]:
    """Structure constants of [x, y] on basis generators: phi^-1 of x acting
    on phi(y) in A_1 (x) C_{-1}, plus the central cell on degree 0."""
    if x.kind == "C" or y.kind == "C":
        return ()
    mono, scale = _phi(y)
    coeff = jet_coefficient(x, mono, 1, -1) + sum(c for _, c in gen_act_amon(x, mono))
    target, target_scale = _phi_inv(mono.shifted(x.degree))
    out = [(target, Fraction(coeff * scale, target_scale))] if coeff else []
    if with_center and target == L(0):
        a = x.index.as_fraction()
        c = (a**3 - a) / 12 if x.kind == "L" else (a * a - Fraction(1, 4)) / 3
        if c:
            out.append((C, c))
    return tuple(out)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Super-bracket, bilinear over Scalar coefficients.

    Central terms appear only in KHAT mode.
    """
    x._check_mode(y)
    out: dict[Gen, Scalar] = {}
    wc = x.mode.has_center
    for gx, cx in x.terms.items():
        for gy, cy in y.terms.items():
            c = cx * cy
            for g, k in bracket_basis(gx, gy, wc):
                accumulate(out, g, c * k)
    return LieElement(out, x.mode)


@lru_cache(maxsize=None)
def gen_act_amon(g: Gen, m: AMonomial) -> tuple[tuple[AMonomial, Fraction], ...]:
    """Superderivation action g o (t^k xi^e) of a generator L or G on an
    A-monomial, as (monomial, coefficient) pairs:

        L_i . t^k xi^e = (k + e (i+1)/2) t^{i+k} xi^e
        G_m . t^k      = k t^{m+k-1/2} xi
        G_m . t^k xi   = -t^{m+k+1/2}

    The target is the monomial of degree deg(m) + deg(g), of m's type.
    """
    if g.kind == "C":
        return ()  # the center acts as 0
    if g.kind == "L":
        coeff = m.k + Fraction(m.eps * (g.index.as_int() + 1), 2)
    else:
        coeff = Fraction(-1 if m.eps else m.k)
    return ((m.shifted(g.degree), coeff),) if coeff else ()


def jet_coefficient(g: Gen, m: AMonomial, lam, b):
    """The coefficient of mu_g m in the jet module A_lam (x) C_b, where mu_g
    is (lam + (n+1) b) t^n for L_n and (lam + 2(n+1) b) t^n xi for
    G_{n+1/2}; 0 when xi * xi = 0.  The product mu_g m has the degree of
    g o m."""
    if g.parity and m.eps:
        return 0
    return lam + b * ((g.index.doubled // 2 + 1) * (1 + g.parity))


def k_action_on_A(x: LieElement, a: AElement) -> AElement:
    """Superderivation action of the centerless algebra on A, extended
    bilinearly from :func:`gen_act_amon`."""
    out: dict[AMonomial, Scalar] = {}
    for g, cg in x.terms.items():
        if g.kind == "C":
            raise AlgebraError("the central element does not act on A")
        for m, cm in a.terms.items():
            c = cg * cm
            for mono, coeff in gen_act_amon(g, m):
                accumulate(out, mono, c * coeff)
    return AElement(out, a.mode)


def A_action_on_k(a: AElement, x: LieElement) -> LieElement:
    """Module action a x = phi^-1(a phi(x)) of A on the algebra; see the
    module docstring for the table."""
    out: dict[Gen, Scalar] = {}
    for g, cg in x.terms.items():
        if g.kind == "C":
            raise AlgebraError("A does not act on the central element")
        mono, scale = _phi(g)
        for m, cm in a.terms.items():
            c = cg * cm
            prod = m.times(mono)
            if prod is None:
                continue  # xi G_m = 0
            target, target_scale = _phi_inv(prod)
            if not x.mode.admits(target):
                raise AlgebraError(f"action result {target.render()} violates mode {x.mode.value}")
            if scale != target_scale:
                c = c * Fraction(scale, target_scale)
            accumulate(out, target, c)
    return LieElement(out, x.mode)


def rep_residual(rho, x, y, xy, v, odd):
    """rho(x) rho(y) v - (-1)^{|x||y|} rho(y) rho(x) v - rho(xy) v, where
    ``rho(e, w)`` is the action of e on w, ``xy`` is [x, y] and ``odd`` is
    true when x and y are both odd; zero when rho respects [x, y]."""
    first = rho(x, rho(y, v))
    swap = rho(y, rho(x, v))
    return (first + swap if odd else first - swap) - rho(xy, v)


def compatibility_residual(v: LieElement, a: AElement, x: LieElement):
    """Residual of v(ax) - (-1)^{|v||a|} a(vx) - (v o a) x, the law of A # k
    acting on the algebra; expected zero for all homogeneous inputs.
    Returned embedded in the smash algebra.
    """
    pv, pa = v.parity(), a.parity()
    if pv is None or pa is None or x.parity() is None:
        raise AlgebraError("compatibility residual needs homogeneous inputs")

    def rho(e, w):
        return bracket(e, w) if isinstance(e, LieElement) else A_action_on_k(e, w)

    residual = rep_residual(rho, v, a, k_action_on_A(v, a), x, pv and pa)
    from .enveloping import SmashElement  # local import: no cycle at module load

    return SmashElement.from_lie(residual)
