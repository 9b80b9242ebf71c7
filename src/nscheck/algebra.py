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
(-1)^{|x||y|} rho(y) rho(x) = rho([x, y]), stated once on basis keys over
a cached basis-level table rho: ad (Jacobi, :func:`bracket_basis`), A # k
on the algebra (compatibility, [v, a] = v o a: ``bracket_basis`` for a
generator, :func:`amon_act_gen` for an A-monomial), the algebra on A
(derivation action, :func:`gen_act_amon`) and the algebra on a module (the
module axiom, ``modules``: the per-handle ``GammaModule.gen_action``).  A
residual is a plain {key: coefficient} table, so a passing check does no
Scalar arithmetic.  The cached tables keep the coefficient rule of
``scalars``, so an integral structure constant is an int and most of that
arithmetic runs on machine ints.  The structural suites test the table and
wrap only their witness, the first nonzero residual, into its element type
(whose constructor takes the table as it is): a passing check builds no
element.

Keys: the basis keys are tuple values, so they hash, compare and build in
C.  :class:`HalfInt` is ``(doubled,)``, :class:`Gen` is ``(kind, index)``
and :class:`AMonomial` (and ``modules.BasisKey``) is ``(k, eps)``, ordered
as those tuples; generators are not ordered (:meth:`Gen.sort_key`).
Equality is by fields, also across ``AMonomial`` and ``BasisKey``, which
never share a table.

Every element type of the package (``LieElement`` and ``AElement`` here,
``SmashElement`` and ``ModuleVector`` downstream) is a :class:`Combination`,
an immutable finite exact-linear combination of basis keys under the
coefficient rule of ``scalars``, like the cached tables:

* the constructor normalises each coefficient once: an int when integral,
  a Fraction with denominator > 1 when otherwise rational, and a Scalar
  only when it involves l or b, so the products and sums of numeric
  elements run on machine ints and Fractions; ``render`` wraps each
  coefficient in a Scalar, so a rendering does not depend on the
  representation;
* no zero coefficient is ever stored, so ``is_zero`` is ``not terms`` and
  an element is falsy exactly at zero, like a residual table;
* every construction runs the subclass's key admission check;
* ``+`` and ``-`` combine only elements of one type and one ``mode`` (None
  for a type without modes) and raise :class:`AlgebraError` otherwise; the
  type and the mode are part of ``==``;
* ``items`` and ``render`` list the terms in the subclass's canonical order,
  so a rendering is a deterministic function of the value.

:func:`accumulate` is the one merge rule for sparse coefficient tables, and
:func:`extend` the one linear extension of a basis-level table: the PBW
rewriting, the finite-difference sums and the representation law are each
``extend`` over plain dicts (the module action is the integer fold of
``modules.act``).  :func:`bilinear`
is ``extend`` over the pairs of terms of two elements: :func:`bracket`,
:func:`k_action_on_A` and :func:`A_action_on_k` are each one call of it,
as :func:`compatibility_residual` is ``extend`` over the triples; it
returns the residual as the Lie element it is, like ``bracket`` and
``A_action_on_k``.  This module imports only ``scalars``: no layer imports
a later one (``tests/test_tooling.py``).
``enveloping.smash_product`` keeps its double loop: its pair table is the
composite of two cached tables (a PBW monomial moved past an A-monomial,
then the PBW product) with xi*xi = 0 dropped in between, and caching that
composite per pair of keys cost the ``identities`` run 12% more time and
25% more peak memory.  The structural suites call the tables, not these
products.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .scalars import Scalar, _coefficient, _rational


class AlgebraError(ValueError):
    """Mode violations: bad indices, central element misuse, mode mixing."""


def accumulate(table: dict, key, coeff) -> None:
    """Add ``coeff`` into ``table[key]``, dropping the entry when it sums to
    zero.  Coefficients may be ints, Fractions or Scalars: each is falsy
    exactly at zero."""
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


def bilinear(x: Combination, y: Combination, table) -> dict:
    """The bilinear extension sum_{k,l} c_k d_l table(k, l) of a basis-level
    table: :func:`extend` over the pairs of terms of ``x`` and ``y``."""
    terms = (((kx, ky), cx * cy)
             for (kx, cx), (ky, cy) in product(x.terms.items(), y.terms.items()))
    return extend(terms, lambda pair: table(*pair))


class Combination:
    """Immutable sparse exact-linear combination; see the module docstring.
    The constructor takes a {key: coefficient} table of ints, Fractions or
    Scalars and stores it under the coefficient rule.

    Subclasses supply key admission (``_admit``), term order (``_order``)
    and term rendering (``_render_term``).
    """

    __slots__ = ("terms", "mode")
    default_mode = None

    def __init__(self, terms: dict | None = None, mode=None):
        if mode is None:
            mode = self.default_mode
        clean = {}
        if terms:
            self._admit(terms, mode)
            for k, c in terms.items():
                # the coefficient rule; a Scalar in l or b is never zero
                q = _rational(c)
                if q is None:
                    clean[k] = c
                elif q:
                    clean[k] = q
        object.__setattr__(self, "terms", clean)
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

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        q = _rational(c)  # a float raises ScalarError
        c = c if q is None else q
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
            body = self._render_term(key, Scalar.of(c).render_coeff())
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


class HalfInt(tuple):
    """Element of (1/2)Z stored as twice its value: the tuple ``(doubled,)``."""

    __slots__ = ()
    doubled = property(itemgetter(0))

    def __new__(cls, doubled: int):
        return tuple.__new__(cls, (doubled,))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"HalfInt(doubled={self.doubled!r})"

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


class Gen(tuple):
    """Basis generator: L(n) with n integral, G(r) with r strictly
    half-integral, or the central element C; the tuple ``(kind, index)``
    with kind "L", "G" or "C".  Generators are not ordered: sort by
    :meth:`sort_key`."""

    __slots__ = ()
    kind = property(itemgetter(0))
    index = property(itemgetter(1))

    def __new__(cls, kind: str, index: HalfInt = HalfInt(0)):
        if kind == "L":
            if not index.is_integer():
                raise AlgebraError(f"L index must be an integer, got {index.render()}")
        elif kind == "G":
            if index.is_integer():
                raise AlgebraError(f"G index must be strictly half-integral, got {index.render()}")
        elif kind != "C":
            raise AlgebraError(f"unknown generator kind {kind!r}")
        elif index.doubled:
            raise AlgebraError(f"the central element C takes no index, got {index.render()}")
        return tuple.__new__(cls, (kind, index))

    def __getnewargs__(self):
        return tuple(self)

    def _unordered(self, other):
        raise TypeError("generators are not ordered; sort by Gen.sort_key")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self):
        return f"Gen(kind={self.kind!r}, index={self.index!r})"

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


class AMonomial(tuple):
    """Monomial t^k xi^eps of A, the tuple ``(k, eps)``, so ordered by (k,
    eps); parity equals eps."""

    __slots__ = ()
    k = property(itemgetter(0))
    eps = property(itemgetter(1))

    def __new__(cls, k: int, eps: int = 0):
        if type(k) is not int:
            raise AlgebraError(f"t exponent must be an int, got {k!r}")
        if eps not in (0, 1):
            raise AlgebraError("xi exponent must be 0 or 1")
        return tuple.__new__(cls, (k, eps))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k!r}, eps={self.eps!r})"

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
        return tuple.__new__(type(self), (d // 2, d % 2))  # valid by construction

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
    """Finite exact-linear combination of basis generators in one mode."""

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
        return LieElement({gen: coeff}, mode)


class AElement(Combination):
    """Finite exact-linear combination of A-monomials."""

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
        return AElement({AMonomial(k, eps): coeff}, mode)


def _phi(g: Gen) -> tuple[AMonomial, int]:
    """(m, s) with phi(g) = s m: the monomial of g's degree and parity."""
    return A_ONE.shifted(g.degree), 1 + g.parity


def _phi_inv(m: AMonomial) -> tuple[Gen, int]:
    """(g, s) with phi(g) = s m."""
    return Gen("G" if m.eps else "L", m.degree), 1 + m.eps


@lru_cache(maxsize=None)
def bracket_basis(x: Gen, y: Gen, with_center: bool) -> tuple[tuple[Gen, int | Fraction], ...]:
    """Structure constants of [x, y] on basis generators: phi^-1 of x acting
    on phi(y) in A_1 (x) C_{-1}, plus the central cell on degree 0; each
    under the coefficient rule of ``scalars``, like every cached table."""
    if x.kind == "C" or y.kind == "C":
        return ()
    mono, scale = _phi(y)
    coeff = jet_coefficient(x, mono, 1, -1) + sum(c for _, c in gen_act_amon(x, mono))
    target, target_scale = _phi_inv(mono.shifted(x.degree))
    out = [(target, _coefficient(Fraction(coeff * scale, target_scale)))] if coeff else []
    if with_center and target == L(0):
        a = x.index.as_fraction()
        c = Fraction(a**3 - a, 12) if x.kind == "L" else Fraction(a * a - Fraction(1, 4), 3)
        if c:
            out.append((C, _coefficient(c)))
    return tuple(out)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Super-bracket, bilinear over exact coefficients.

    Central terms appear only in KHAT mode.
    """
    x._check_mode(y)
    wc = x.mode.has_center
    return LieElement(bilinear(x, y, lambda gx, gy: bracket_basis(gx, gy, wc)), x.mode)


# typed: an AMonomial and an equal BasisKey keep their own entries, so every
# target has the type of its m
@lru_cache(maxsize=None, typed=True)
def gen_act_amon(g: Gen, m: AMonomial) -> tuple[tuple[AMonomial, int | Fraction], ...]:
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
        coeff = Fraction(2 * m.k + m.eps * (g.index.as_int() + 1), 2)
    else:
        coeff = -1 if m.eps else m.k
    return ((m.shifted(g.degree), _coefficient(coeff)),) if coeff else ()


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
    if C in x.terms:
        raise AlgebraError("the central element does not act on A")
    return AElement(bilinear(x, a, gen_act_amon), a.mode)


@lru_cache(maxsize=None)
def amon_act_gen(m: AMonomial, g: Gen) -> tuple[tuple[Gen, int | Fraction], ...]:
    """Module action m g = phi^-1(m phi(g)) of an A-monomial on a generator,
    as (generator, coefficient) pairs; () when xi G_r = 0."""
    if g.kind == "C":
        raise AlgebraError("A does not act on the central element")
    mono, scale = _phi(g)
    prod = m.times(mono)
    if prod is None:
        return ()
    target, target_scale = _phi_inv(prod)
    return ((target, _coefficient(Fraction(scale, target_scale))),)


def _a_act(m: AMonomial, g: Gen, mode: AlgebraMode) -> tuple[tuple[Gen, int | Fraction], ...]:
    """:func:`amon_act_gen`, with every target admitted by ``mode``."""
    out = amon_act_gen(m, g)
    for target, _ in out:
        if not mode.admits(target):
            raise AlgebraError(f"action result {target.render()} violates mode {mode.value}")
    return out


def A_action_on_k(a: AElement, x: LieElement) -> LieElement:
    """Module action a x = phi^-1(a phi(x)) of A on the algebra, extended
    bilinearly from :func:`amon_act_gen`."""
    return LieElement(bilinear(x, a, lambda g, m: _a_act(m, g, x.mode)), x.mode)


def rep_residual(rho, x, y, xy, v, odd) -> dict:
    """The representation law on basis keys:

        rho(x) rho(y) v - (-1)^{|x||y|} rho(y) rho(x) v - rho([x, y]) v

    as a {key: coefficient} table, empty exactly when rho respects [x, y]
    at v.  x, y and v are basis keys, ``rho(e, w)`` is a basis-level table
    giving (target, coefficient) pairs, ``xy`` is [x, y] as (key,
    coefficient) pairs and ``odd`` is true when x and y are both odd."""
    terms = [((x, w), c) for w, c in rho(y, v)]
    terms += [((y, w), c if odd else -c) for w, c in rho(x, v)]
    terms += [((e, v), -c) for e, c in xy]
    return extend(terms, lambda ew: rho(*ew))


def compatibility_basis(v: Gen, m: AMonomial, x: Gen, mode: AlgebraMode) -> dict:
    """The law of A # k acting on the algebra on basis keys, v(m x) -
    (-1)^{|v||m|} m(v x) - (v o m) x, as a {generator: coefficient} table
    (:func:`rep_residual`): a generator acts by the bracket, an A-monomial
    by the module action admitted by ``mode``."""
    if v.kind == "C":
        raise AlgebraError("the central element does not act on A")
    wc = mode.has_center

    def rho(e, w):
        return bracket_basis(e, w, wc) if isinstance(e, Gen) else _a_act(e, w, mode)

    return rep_residual(rho, v, m, gen_act_amon(v, m), x, v.parity and m.eps)


def compatibility_residual(v: LieElement, a: AElement, x: LieElement) -> LieElement:
    """Residual of v(ax) - (-1)^{|v||a|} a(vx) - (v o a) x, the law of A # k
    acting on the algebra, extended trilinearly from
    :func:`compatibility_basis`; expected zero for all homogeneous inputs.
    """
    if v.parity() is None or a.parity() is None or x.parity() is None:
        raise AlgebraError("compatibility residual needs homogeneous inputs")
    v._check_mode(x)
    terms = (((gv, m, gx), cv * cm * cx) for (gv, cv), (m, cm), (gx, cx)
             in product(v.terms.items(), a.terms.items(), x.terms.items()))
    return LieElement(extend(terms, lambda vmx: compatibility_basis(*vmx, x.mode).items()), x.mode)
