"""Verification suites and classification engines.

Every check produces a :class:`CheckReport` carrying a name, the identity
being verified, a pass/fail/info status and, on failure, a rendered
residual witness.  Reports are deterministic: fixed sweep orders, fixed
name ordering, canonical scalar rendering.

Module-level verdicts (simplicity, isomorphism, annihilator order) are
window-certified: they are exact statements about the margin-restricted
interior of a finite key window, pinned by the acceptance grid to the
global classification facts.  One window rule says when a window can
decide: its interior, less the weight offset of an intertwiner search, has
length at least 4*gen_range in k (the interior -6..6 has length 12).  One
acting set, :func:`_acting`, lists the elements that move keys, for the
edges and for the re-check of a reducibility certificate.  Simplicity has
one closure rule: the submodule that a key generates inside the window,
which with weight multiplicity 1 is the set of keys it reaches.

Every suite builds its pass/fail reports here; the CLI only parses options
and emits.  A witness is the first nonzero residual of a lazy sweep,
:func:`first_witness`.  :func:`_check` reports every suite of residuals
with the location of its witness, which is empty for the fixed residuals of
the reconstruction, the centralizer G(-1/2) brackets and the psi table;
only the annihilator report, which searches its order, uses
:func:`first_witness` with :func:`_ok`.  One operator sweep,
:func:`_images`, serves the annihilator and the chains; it folds each
operator, as the module axiom each generator pair, once over all the keys.
The structural suites sweep plain {key: coefficient} residual tables and
build an element only for the witness; the Jacobi family split is one
streaming pass that keeps the first hit of each family and no list of
triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product
from typing import NamedTuple

from . import algebra
from .algebra import (
    AElement,
    AMonomial,
    AlgebraError,
    AlgebraMode,
    G,
    Gen,
    HalfInt,
    L,
    LieElement,
    basis,
    compatibility_basis,
    rep_residual,
)
from .enveloping import (
    SmashElement,
    alternating_sum,
    g_prime,
    gl_sum,
    l_prime,
    omega,
    smash_bracket,
    verify_reconstruction,
)
from .modules import (
    BasisKey,
    GammaModule,
    ModuleError,
    ModuleVector,
    Window,
    act_each,
    edge_coeffs,
    gamma,
    module_axiom_residuals,
)
from .scalars import B, LAMBDA, Scalar, _coefficient


class AnnihilatorBoundError(RuntimeError):
    """No annihilator order within the allowed bound."""


@dataclass(frozen=True)
class CheckReport:
    """Named verification outcome.  ``fail`` always carries a witness."""

    name: str
    paper_anchor: str
    status: str
    params: str = ""
    residual_witness: str | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "info"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fail" and self.residual_witness is None:
            raise ValueError("fail reports must carry a residual witness")

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "params": self.params,
        }
        if self.residual_witness is not None:
            d["witness"] = self.residual_witness
        return d


class EdgeRecord(NamedTuple):
    """One nonzero action edge of the weight digraph; its coefficient keeps
    the coefficient rule of ``scalars``, as the module action does."""

    source: BasisKey
    target: BasisKey
    generator: str
    coefficient: int | Fraction | Scalar


@dataclass(frozen=True)
class Verdict:
    """Simplicity verdict over a window interior."""

    kind: str  # simple | reducible | inconclusive
    window: Window
    gen_range: int
    certificate: tuple[BasisKey, ...] | None = None
    locus: dict | None = None
    detail: str = ""


def sort_reports(reports) -> list[CheckReport]:
    return sorted(reports, key=lambda r: r.name)


def _ok(name, anchor, params, residual_render: str | None) -> CheckReport:
    if residual_render is None:
        return CheckReport(name, anchor, "pass", params)
    return CheckReport(name, anchor, "fail", params, residual_render)


def first_witness(cases, where, wrap=None) -> tuple[str | None, str]:
    """The rendered first nonzero residual of ``cases`` and its location.

    ``cases`` yields (location, residual) pairs and is consumed lazily, so
    the search stops at the first hit (in a sweep, :func:`_images`, after
    the operator of that hit, folded once for all its keys);
    ``where(*location)`` renders the location of that hit.  A residual is an
    element, or with ``wrap`` a plain {key: coefficient} table that ``wrap``
    turns into the element rendered, for the hit alone; both are falsy
    exactly at zero.  Returns (None, "") when every residual is zero.
    """
    for loc, r in cases:
        if r:
            return (r if wrap is None else wrap(r)).render(), where(*loc)
    return None, ""


def _at(*objs) -> str:
    return f" at ({','.join(o.render() for o in objs)})" if objs else ""


def _check(name, anchor, params, cases, where=_at, wrap=None) -> CheckReport:
    """Pass when every residual of ``cases`` is zero; else fail on the first
    nonzero one (:func:`first_witness`), its location appended to ``params``."""
    witness, loc = first_witness(cases, where, wrap)
    return _ok(name, anchor, params + loc, witness)


# ---------------------------------------------------------------------------
# structural suites: Jacobi, compatibility, derivation action
# ---------------------------------------------------------------------------

JACOBI_ANCHOR = "[x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]] with the 2-cocycle terms"
COMPAT_ANCHOR = "v(a x) - (-1)^{|v||a|} a(v x) = (v o a) x"
ACTION_ANCHOR = "x o (y o a) - (-1)^{|x||y|} y o (x o a) = [x,y] o a"


def _jacobi_table(x: Gen, y: Gen, z: Gen) -> dict:
    """The Jacobi identity as the representation law of ad, on basis keys,
    as a {generator: coefficient} table."""
    table = algebra.bracket_basis

    def ad(e, w):
        return table(e, w, True)

    return rep_residual(ad, x, y, ad(x, y), z, x.parity and y.parity)


def jacobi_residual(x: Gen, y: Gen, z: Gen) -> LieElement:
    """The Jacobi identity as the representation law of ad, on basis keys."""
    return LieElement(_jacobi_table(x, y, z), AlgebraMode.KHAT)


JACOBI_FAMILIES = ("LLL", "LLG", "LGG", "GGG", "center")


def _triple_family(x: Gen, y: Gen, z: Gen) -> str:
    """The name in :data:`JACOBI_FAMILIES` of the triple's kinds."""
    kinds = [g.kind for g in (x, y, z)]
    if "C" in kinds:
        return "center"
    return "".join(sorted(kinds, reverse=True))


def _jacobi_triples(index_range: int):
    """All basis triples with |index| <= index_range, in sweep order."""
    if index_range < 2:
        raise AlgebraError("index_range must be at least 2")
    return product(basis(index_range), repeat=3)


def _jacobi_report(index_range: int, family: str, cases) -> CheckReport:
    """The report of one family from its (triple, residual table) cases."""
    return _check(f"jacobi/{family}/range={index_range}", JACOBI_ANCHOR, f"range={index_range}",
                  cases, wrap=lambda r: LieElement(r, AlgebraMode.KHAT))


def verify_jacobi(index_range: int) -> CheckReport:
    """Graded Jacobi residual over all homogeneous basis triples with
    |index| <= index_range, central contributions included;
    :func:`jacobi_family_reports` files the same triples per family."""
    return _jacobi_report(index_range, "all",
                          ((t, _jacobi_table(*t)) for t in _jacobi_triples(index_range)))


def jacobi_family_reports(index_range: int) -> list[CheckReport]:
    """One report per family of :data:`JACOBI_FAMILIES`, filed in one
    streaming sweep: it keeps the first nonzero residual of each family, in
    sweep order, and checks no later triple of a family that has one."""
    hits: dict[str, list] = {fam: [] for fam in JACOBI_FAMILIES}
    for t in _jacobi_triples(index_range):
        hit = hits[_triple_family(*t)]
        if not hit:
            r = _jacobi_table(*t)
            if r:
                hit.append((t, r))
    return [_jacobi_report(index_range, fam, hit) for fam, hit in hits.items()]


def compat_reports(index_range: int) -> list[CheckReport]:
    """The eight compatibility displays tying brackets, the derivation
    action and the module action of the coefficient algebra."""
    mode = AlgebraMode.K
    gens = basis(index_range, mode)
    kinds = {kind: [g for g in gens if g.kind == kind] for kind in ("L", "G")}
    amons = {aname: [AMonomial(i, eps) for i in range(-index_range, index_range + 1)]
             for eps, aname in ((0, "t"), (1, "t*xi"))}
    return [_check(f"compat/({vkind},{aname},{xkind})", COMPAT_ANCHOR, f"range={index_range}",
                   (((v, a, x), compatibility_basis(v, a, x, mode))
                    for v, a, x in product(kinds[vkind], amons[aname], kinds[xkind])),
                   wrap=lambda r: SmashElement.from_lie(LieElement(r, mode)))
            for vkind, aname, xkind in product(kinds, amons, kinds)]


def action_rep_reports(index_range: int) -> list[CheckReport]:
    """The derivation action is a representation on the coefficient algebra."""
    mode = AlgebraMode.K
    gens = basis(index_range, mode)
    kinds = {kind: [g for g in gens if g.kind == kind] for kind in ("L", "G")}
    amons = [AMonomial(i, eps) for i in range(-index_range, index_range + 1) for eps in (0, 1)]
    rho, ad, wc = algebra.gen_act_amon, algebra.bracket_basis, mode.has_center

    def cases(xs, ys):
        for x, y in product(xs, ys):
            xy, odd = ad(x, y, wc), x.parity and y.parity  # once per pair, not per a
            for a in amons:
                yield (x, y, a), rep_residual(rho, x, y, xy, a, odd)

    return [_check(f"action-rep/({xkind},{ykind})", ACTION_ANCHOR, f"range={index_range}",
                   cases(kinds[xkind], kinds[ykind]), wrap=AElement)
            for xkind, ykind in product(kinds, repeat=2)]


# ---------------------------------------------------------------------------
# smash-algebra identity suites
# ---------------------------------------------------------------------------

RECON_L_ANCHOR = ("sum_k (-1)^k binom(n+1,k+1) t^{n-k}(L'_k - (k+1)/2 xi G'_{k-1/2})"
                  " + t^{n+1} L_{-1} = L_n")
RECON_G_ANCHOR = "sum_k (-1)^k binom(n,k) t^{n-k}(G'_{k-1/2} - 2 xi L'_{k-1}) = G_{n-1/2}"
CENTRALIZER_ANCHOR = "[x, A] = [x, G_{-1/2}] = 0 for x in the primed family"
PSI_LL_ANCHOR = "[L'_m, L'_n] = (n-m) L'_{m+n}"
PSI_LG_ANCHOR = "[L'_m, G'_{n+1/2}] = (n + 1/2 - m/2) G'_{m+n+1/2}"
PSI_GG_ANCHOR = "[G'_r, G'_s] = 2 L'_{r+s}"


def reconstruction_reports(max_n: int) -> list[CheckReport]:
    if max_n < 0:
        raise AlgebraError("max_n must be at least 0")
    return [_check(f"reconstruction/n={n}", f"{RECON_L_ANCHOR} ; {RECON_G_ANCHOR}",
                   f"n={n}; extension L'(-1) = -L(-1)",
                   (((), r) for r in verify_reconstruction(n)))
            for n in range(max_n + 1)]


def centralizer_reports(max_n: int, max_k: int) -> list[CheckReport]:
    """Brackets of the primed family with the coefficient algebra and with
    G_{-1/2} vanish in smash normal form.

    A-brackets run over the centralizer range (L'(n) for n >= 0, G'(n-1/2)
    for n >= 1); the G_{-1/2} brackets extend to the boundary elements
    L'(-1) and G'(-1/2), where they also vanish.
    """
    if max_n < 0 or max_k < 0:
        raise AlgebraError(f"max_n and max_k must be at least 0, got {max_n} and {max_k}")
    mode = AlgebraMode.K
    gm = SmashElement.gen(G(Fraction(-1, 2)), mode)
    # each primed element once, as (name, n, element); the A-brackets skip
    # the first of each kind, the boundary elements L'(-1) and G'(-1/2)
    lp = [(f"L'({n})", n, l_prime(n, mode)) for n in range(-1, max_n + 1)]
    gp = [(f"G'({2 * n - 1}/2)", n, g_prime(n, mode)) for n in range(0, max_n + 1)]
    out = [_check(f"centralizer/{name}/A", CENTRALIZER_ANCHOR, f"n={n}; |k|<={max_k}",
                  (((k, eps), smash_bracket(x, SmashElement.amon(k, eps, mode)))
                   for k, eps in product(range(-max_k, max_k + 1), (0, 1))),
                  lambda k, eps: f" at t^{k}{'*xi' if eps else ''}")
           for name, n, x in lp[1:] + gp[1:]]
    for name, n, x in lp + gp:
        out.append(_check(f"centralizer/{name}/G(-1/2)", CENTRALIZER_ANCHOR,
                          f"n={n}", [((), smash_bracket(gm, x))]))
    return out


def psi_table_reports(max_index: int) -> list[CheckReport]:
    """The bracket table of the primed family, verified by normal-form
    computation: each row (name, anchor, params, x, y, z, c) checks that
    [x, y] - c z vanishes."""
    if max_index < 0:
        raise AlgebraError("max_index must be at least 0")
    mode = AlgebraMode.K
    # each primed element once: L'(0..2 max) and G'(1/2..(4 max - 1)/2)
    lp = {n: l_prime(n, mode) for n in range(2 * max_index + 1)}
    gp = {n: g_prime(n, mode) for n in range(1, 2 * max_index + 1)}
    span = range(max_index + 1)
    rows = [(f"psi-table/LL/m={m}/n={n}", PSI_LL_ANCHOR, f"m={m}, n={n}",
             lp[m], lp[n], lp[m + n], n - m)
            for m in span for n in span]
    rows += [(f"psi-table/LG/m={m}/n={n}", PSI_LG_ANCHOR, f"m={m}, n={n}",
              lp[m], gp[n + 1], gp[m + n + 1], Fraction(2 * n + 1 - m, 2))
             for m in span for n in range(max_index)]
    rows += [(f"psi-table/GG/r={2*n1+1}/2/s={2*n2+1}/2", PSI_GG_ANCHOR, f"r={n1}+1/2, s={n2}+1/2",
              gp[n1 + 1], gp[n2 + 1], lp[n1 + n2 + 1], 2)
             for n1 in range(max_index) for n2 in range(max_index)]
    return [_check(name, anchor, params, [((), smash_bracket(x, y) - z.scale(c))])
            for name, anchor, params, x, y, z, c in rows]


# ---------------------------------------------------------------------------
# annihilating operators and consequence chains on module windows
# ---------------------------------------------------------------------------

OMEGA_ANCHOR = "Omega^{(m)}_{k,s} = sum_i (-1)^i binom(m,i) L_{k-i} L_{s+i} annihilates the window"
GL_ANCHOR = "sum_i (-1)^i binom(m,i) G_{k-i} L_{p+i} annihilates the window"
CHAIN_TL_ANCHOR = "sum_i (-1)^i binom(m+2,i) t^{a-i} . L_{s+i} annihilates the window"
CHAIN_TG_ANCHOR = "sum_i (-1)^i binom(m+3,i) t^{a-i} . G_{p+i} annihilates the window"
CHAIN_GL_ANCHOR = "sum_i (-1)^i binom(m+2,i) G_{q-i} L_{p+i} annihilates the window"


def window_keys(mod: GammaModule, window: Window, interior_only: bool = False) -> list[BasisKey]:
    rng = window.interior() if interior_only else window.full()
    return [BasisKey(k, eps) for k in rng for eps in (0, 1) if mod.admissible(BasisKey(k, eps))]


def _checked_keys(mod: GammaModule, window: Window) -> list[BasisKey]:
    """The window keys of ``mod``; a window that holds none is a ModuleError,
    never a check passed over no instances."""
    keys = window_keys(mod, window)
    if not keys:
        raise ModuleError(f"window {window.render()} holds no key of {mod.descriptor()}")
    return keys


def a_l_chain(a: int, s: int, order: int, mode: AlgebraMode) -> SmashElement:
    """sum_i (-1)^i binom(order, i) t^{a-i} (x) L_{s+i}."""
    return alternating_sum(order, lambda i: {(AMonomial(a - i, 0), (L(s + i),)): 1}, mode)


def a_g_chain(a: int, p_doubled: int, order: int, mode: AlgebraMode) -> SmashElement:
    """sum_i (-1)^i binom(order, i) t^{a-i} (x) G_{p+i}, with p = p_doubled/2."""
    return alternating_sum(
        order, lambda i: {(AMonomial(a - i, 0), (G(Fraction(p_doubled + 2 * i, 2)),)): 1}, mode)


def _sweep(mod: GammaModule, sweep: int, contact_start: int) -> range:
    """The sweep indices -sweep..sweep; in contact mode the sweep + 1
    indices from ``contact_start``, so that every generator is admitted."""
    if sweep < 0:
        raise ModuleError(f"sweep must be non-negative, got {sweep}")
    if mod.algebra_mode is AlgebraMode.KPLUS:
        return range(contact_start, contact_start + sweep + 1)
    return range(-sweep, sweep + 1)


def _images(mod: GammaModule, keys, sweep: int, starts: tuple[int, int], build):
    """The one operator sweep, lazily: ((i, j, key), the table of the image
    of the basis vector) for the operator ``build(i, j)``, folded once for
    all the keys, at every pair of sweep indices (``starts``, :func:`_sweep`)."""
    vecs = [{key: 1} for key in keys]
    for i, j in product(_sweep(mod, sweep, starts[0]), _sweep(mod, sweep, starts[1])):
        for key, image in zip(keys, act_each(build(i, j), vecs, mod)):
            yield (i, j, key), image


def minimal_annihilator(
    mod: GammaModule, window: Window, max_m: int, sweep: int = 2
) -> tuple[int, CheckReport]:
    """Smallest m <= max_m whose quadratic operators kill every window
    vector for every sweep index, plus the odd companion sums at that m.

    In contact mode the sweeps are index-shifted so that every generator
    stays within bounds.  A window that holds no key of ``mod`` is a
    ModuleError.
    """
    if max_m < 1:
        raise ModuleError("max_m must be at least 1")
    keys, mode = _checked_keys(mod, window), mod.algebra_mode
    # one search; the witness of the last failing order proves minimality
    minimality = "minimality: m=1 is the least admissible order"
    for found in range(1, max_m + 1):
        wit, where = first_witness(
            _images(mod, keys, sweep, (found - 1, -1), lambda k, s: omega(k, s, found, mode)),
            lambda k, s, key: f"Omega^({found})_{{{k},{s}}} {key.render()}", ModuleVector,
        )
        if wit is None:
            break
        minimality = f"minimality: {where} = {wit}"
    else:
        raise AnnihilatorBoundError(
            f"annihilator order exceeds bound {max_m} on {mod.descriptor()}"
        )

    params = [f"module={mod.descriptor()}", f"window={window.render()}",
              f"sweep={sweep}", f"m={found}", minimality]

    # odd companion sums at the discovered order, G at index j + 1/2
    wit, where = first_witness(
        _images(mod, keys, sweep, (found - 1, -1),
                lambda j, p: gl_sum(HalfInt(2 * j + 1), p, found, mode)),
        lambda j, p, key: f"G-L sum m={found}, k={2 * j + 1}/2, p={p} on {key.render()}",
        ModuleVector,
    )
    witness = None if wit is None else f"{where}: {wit}"
    report = _ok(f"annihilator/{mod.descriptor()}", f"{OMEGA_ANCHOR} ; {GL_ANCHOR}",
                 "; ".join(params), witness)
    return found, report


def chain_reports(
    mod: GammaModule, m: int, window: Window, sweep: int = 2, algebra_level: bool = False
) -> list[CheckReport]:
    """The three consequence chains evaluated as operators on the window.

    With ``algebra_level`` also reports (status info) whether each chain
    vanishes identically in the smash algebra; it does not, which is why
    the module-level check is the normative one.  A window that holds no key
    of ``mod`` is a ModuleError.
    """
    kplus = mod.algebra_mode is AlgebraMode.KPLUS
    # the chains with an A-part live in A # k, or A+ # k+ in contact mode
    smode = AlgebraMode.K if mod.algebra_mode.has_center else mod.algebra_mode
    keys = _checked_keys(mod, window)

    # name, anchor, order, contact start of the inner sweep (the outer one
    # starts at the order), the operator at sweep indices (i, j), the
    # rendering of (i, j), and the algebra-level probe point (i, j)
    chains = (
        ("chain/t-L", CHAIN_TL_ANCHOR, m + 2, -1,
         lambda i, j, order: a_l_chain(i, j, order, smode),
         lambda i, j: f"a={i}, s={j}", (2 * (m + 2), -1) if kplus else (m + 2, 0)),
        ("chain/t-G", CHAIN_TG_ANCHOR, m + 3, 0,
         lambda i, j, order: a_g_chain(i, 2 * j + 1, order, smode),
         lambda i, j: f"a={i}, p={2 * j + 1}/2", (2 * (m + 3) if kplus else m + 3, 0)),
        ("chain/G-L", CHAIN_GL_ANCHOR, m + 2, -1,
         lambda i, j, order: gl_sum(HalfInt(2 * i + 1), j, order, mod.algebra_mode),
         lambda i, j: f"q={2 * i + 1}/2, p={j}", (m + 2 if kplus else 0, 0)),
    )
    out = [_check(name, anchor, f"module={mod.descriptor()}; order={order}; sweep={sweep}",
                  _images(mod, keys, sweep, (order, start), partial(build, order=order)),
                  lambda i, j, key: f" at {label(i, j)}, {key.render()}", ModuleVector)
           for name, anchor, order, start, build, label, _ in chains]

    if algebra_level:
        for name, _, order, _, build, _, probe in chains:
            elem = build(*probe, order)
            zero = elem.is_zero()
            out.append(CheckReport(
                f"{name}/algebra-level",
                "the chains vanish on cuspidal modules, not in the smash algebra",
                "info",
                f"identically zero in normal form: {zero}",
                None if zero else elem.render(),
            ))
    return out


def annihilator_reports(
    mod: GammaModule, window: Window, max_m: int, sweep: int = 2, algebra_level: bool = False
) -> tuple[int | None, list[CheckReport]]:
    """The annihilator order with its report and the consequence chains at
    that order; (None, one failed report) when no order up to ``max_m``
    annihilates the window."""
    try:
        m, report = minimal_annihilator(mod, window, max_m, sweep)
    except AnnihilatorBoundError as exc:
        return None, [CheckReport(
            f"annihilator/{mod.descriptor()}",
            "quadratic operators annihilate the window for some bounded order",
            "fail",
            f"module={mod.descriptor()}; window={window.render()}; max_m={max_m}",
            str(exc),
        )]
    return m, [report] + chain_reports(mod, m, window, sweep, algebra_level)


# ---------------------------------------------------------------------------
# module axiom, reachability, simplicity, intertwiners
# ---------------------------------------------------------------------------

MODULE_AXIOM_ANCHOR = "[x,y] acts as the graded commutator of the actions"
SIMPLE_ANCHOR = "simple iff the interior action digraph is strongly connected"
ISO_ANCHOR = "weight-matched per-key scalings commuting with every generator"


def edge_generators(algebra_mode: AlgebraMode, gen_range: int) -> list[Gen]:
    """The generators that move keys: :func:`basis` without C."""
    return [g for g in basis(gen_range, algebra_mode) if g.kind != "C"]


def module_axiom_reports(mod: GammaModule, window: Window, gen_range: int) -> list[CheckReport]:
    """The module axiom for every pair of edge generators on every window
    key; a window that holds no key of ``mod`` is a ModuleError."""
    keys = _checked_keys(mod, window)
    return [_check(f"module-axiom/{mod.convention.value}/({x.render()},{y.render()})",
                   MODULE_AXIOM_ANCHOR, f"module={mod.descriptor()}; window={window.render()}",
                   (((key,), r) for key, r in zip(keys, module_axiom_residuals(x, y, keys, mod))),
                   lambda key: f" at {key.render()}", ModuleVector)
            for x, y in combinations_with_replacement(
                edge_generators(mod.algebra_mode, gen_range), 2)]


def _window_decides(window: Window, gen_range: int, offset: Fraction = Fraction(0)) -> bool:
    """The window rule: the interior, less the weight offset between two
    modules, has length at least 4*gen_range in k."""
    return window.kmax - window.kmin - 2 * window.margin - abs(offset) >= 4 * gen_range


A_EDGES = (AMonomial(1, 0), AMonomial(0, 1))  # the A-edges of a jet-module verdict


def _acting(mod: GammaModule, gen_range: int) -> list[tuple]:
    """The elements that move keys, as (element, name, basis-level action):
    the edge generators, then the A-edges on a jet module."""
    acting = [(g, g.render(), mod.gen_action) for g in edge_generators(mod.algebra_mode, gen_range)]
    # a proper cut on which t and xi act is classified as a jet module (gamma+
    # and gamma-): the polynomial coefficient algebra is part of its structure
    if mod.is_cut() and all(mod.a_acts(a) for a in A_EDGES):
        acting += [(a, a.render(), mod.amon_action) for a in A_EDGES]
    return acting


def module_edges(
    mod: GammaModule, window: Window, gen_range: int
) -> dict[BasisKey, list[EdgeRecord]]:
    """All nonzero interior-to-interior action edges.

    Symbolic coefficients count as nonzero unless identically zero.
    """
    acting = _acting(mod, gen_range)
    edges: dict[BasisKey, list[EdgeRecord]] = {
        key: [] for key in window_keys(mod, window, interior_only=True)}
    for key, out in edges.items():
        for x, name, action in acting:
            for target, coeff in action(x, key):
                if target in edges:
                    out.append(EdgeRecord(key, target, name, coeff))
    return edges


def _closure(adj: dict[BasisKey, list[BasisKey]], seed: BasisKey) -> set[BasisKey]:
    """The keys reachable from ``seed`` along ``adj``, the seed included."""
    seen = {seed}
    stack = [seed]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _targets(edges: dict[BasisKey, list[EdgeRecord]]) -> dict[BasisKey, list[BasisKey]]:
    return {key: [e.target for e in out] for key, out in edges.items()}


def reachability_closure(
    mod: GammaModule, seed: BasisKey, window: Window, gen_range: int
) -> frozenset[BasisKey]:
    """Smallest out-closed set of interior keys containing the seed: the
    submodule that the seed generates inside the window."""
    edges = module_edges(mod, window, gen_range)
    if seed not in edges:
        raise ModuleError(f"seed {seed.render()} outside the window interior")
    return frozenset(_closure(_targets(edges), seed))


def _generic_locus(mod: GammaModule, gen_range: int) -> dict:
    """Edge-coefficient polynomials at the representative keys (0, eps).

    Simultaneous vanishing of an "out" list creates a one-key submodule
    certificate at a translate of that key; vanishing of an "in" list
    creates a complement (quotient-type) certificate.
    """
    gens = edge_generators(mod.algebra_mode, gen_range)
    locus: dict[str, list[str]] = {}
    for eps in (0, 1):
        key = BasisKey(0, eps)
        outs, ins = edge_coeffs(mod, key, gens)
        locus[f"out@{key.render()}"] = sorted({Scalar.of(c).render() for c in outs})
        locus[f"in@{key.render()}"] = sorted({Scalar.of(c).render() for c in ins})
    return locus


def simplicity_verdict(mod: GammaModule, window: Window, gen_range: int) -> Verdict:
    """Simple iff the interior keys span one minimal submodule; otherwise
    reducible, certified by the minimal submodule with the least first key,
    which is re-verified from the basis-level action.

    The closure rule scans the interior keys in order.  A key generates
    ``down`` and is generated by ``up``; ``down`` is a minimal submodule
    exactly when ``down`` lies in ``up``.  Otherwise the keys of
    ``down & up`` generate the same ``down`` and are skipped.

    Inconclusive when the window rule (:func:`_window_decides`) fails;
    ``gen_range`` below 2 is a ModuleError.
    """
    if gen_range < 2:
        # L(-1), L(0), L(1), G(-1/2), G(1/2) span osp(1|2), with no central term
        raise ModuleError("a simplicity verdict needs gen_range >= 2; below that "
                          "the generators span only osp(1|2)")
    if not _window_decides(window, gen_range):
        return Verdict("inconclusive", window, gen_range,
                       detail="window interior narrower than 4*gen_range")
    interior = window_keys(mod, window, interior_only=True)
    if not interior:
        return Verdict("inconclusive", window, gen_range,
                       detail="the window interior holds no key of the module")
    adj = _targets(module_edges(mod, window, gen_range))
    radj: dict[BasisKey, list[BasisKey]] = {key: [] for key in interior}
    for key in interior:
        for target in adj[key]:
            radj[target].append(key)
    skip: set[BasisKey] = set()
    for key in interior:
        if key in skip:
            continue
        down, up = _closure(adj, key), _closure(radj, key)
        if down <= up:
            break
        skip |= down & up
    locus = _generic_locus(mod, gen_range) if not mod.is_numeric() else None
    if len(down) == len(interior):
        return Verdict("simple", window, gen_range, locus=locus,
                       detail="interior digraph strongly connected")
    # soundness: no generator in range, and no A-edge of a jet module, moves
    # a certificate key to an interior key outside the certificate
    acting = _acting(mod, gen_range)
    inside = set(interior)
    cert = tuple(sorted(down))
    for key in cert:
        for x, _, action in acting:
            for target, _ in action(x, key):
                if target in inside and target not in down:
                    raise AssertionError("unsound certificate: "
                                         f"{x.render()} moves {key.render()} out of it")
    return Verdict("reducible", window, gen_range, certificate=cert, locus=locus,
                   detail=f"least minimal submodule, generated by {cert[0].render()}")


@dataclass(frozen=True)
class IntertwinerWitness:
    """Per-key scaling table of a found intertwiner, each scaling an int or a
    Fraction; ``parity`` is ``even`` when the map preserves the parity of
    every key and ``odd`` when it reverses it."""

    mapping: tuple[tuple[BasisKey, BasisKey, int | Fraction], ...]
    parity: str  # even | odd

    def render(self) -> str:
        head = ", ".join(f"{src.render()} -> {dst.render()} x {Scalar.of(c).render()}"
                         for src, dst, c in self.mapping[:4])
        more = ", ..." if len(self.mapping) > 4 else ""
        return f"{self.parity} intertwiner on {len(self.mapping)} keys: {head}{more}"


def find_intertwiner(
    m1: GammaModule, m2: GammaModule, window: Window, gen_range: int
) -> IntertwinerWitness | None:
    """Search for a weight-preserving linear map commuting with every
    generator of bounded index; exact per-key scalings on the interior.

    Requires numeric parameters.  The witness records whether the map
    preserves or reverses the parity assignment of the two modules.  A window
    failing the window rule at the modules' weight offset is a ModuleError,
    and so is one whose interior matches no key of ``m1`` to a key of ``m2``.
    """
    if not (m1.is_numeric() and m2.is_numeric()):
        raise ModuleError("numeric parameters required for intertwiner search")
    if m1.algebra_mode is not m2.algebra_mode:
        raise ModuleError("intertwiner search needs a common algebra mode")
    off = (m1.lam.numeric_value() + m1.b.numeric_value()
           - m2.lam.numeric_value() - m2.b.numeric_value())
    if (2 * off).denominator != 1:
        return None
    if not _window_decides(window, gen_range, off):
        raise ModuleError(f"window {window.render()} cannot decide an intertwiner at weight "
                          f"offset {off}: the interior less |offset| must have length at "
                          f"least 4*gen_range = {4 * gen_range} in k")
    # key.shifted(shift) is the key of m2 with the weight of the key of m1
    shift = HalfInt.of(off)
    interior = set(window.interior())
    # the correspondence: the keys of m1 whose image lies in the interior map
    # onto the keys of m2 whose preimage does; otherwise a weight space is
    # present on one side only, or the solved map is a proper embedding
    tracked = {key for key in window_keys(m1, window, interior_only=True)
               if key.shifted(shift).k in interior}
    matched = {key for key in window_keys(m2, window, interior_only=True)
               if key.shifted(-shift).k in interior}
    if {key.shifted(shift) for key in tracked} != matched:
        return None
    if not tracked:
        raise ModuleError(f"window {window.render()} holds no interior key of "
                          f"{m1.descriptor()} matched to a key of {m2.descriptor()}")

    def edges(gen_list):
        """The per-edge rule: (key, target, c1, c2) for each edge of m1 between
        tracked keys, whose image in m2 needs scale[target] c1 = scale[key] c2;
        None at an edge that no nonzero scaling matches, where the caller stops."""
        for key in sorted(tracked):
            img = key.shifted(shift)
            for g in gen_list:
                a1 = m1.gen_action(g, key)
                a2 = m2.gen_action(g, img)
                if a1 and a1[0][0] in tracked:
                    t1, c1 = a1[0]
                    if a2 and a2[0][0] == t1.shifted(shift):
                        yield key, t1, c1, a2[0][1]
                    else:
                        yield None  # forces a zero scaling, or breaks the weight match
                elif a2 and not a1:
                    yield None

    scale: dict[BasisKey, int | Fraction] = {}
    adj: dict[BasisKey, list[tuple[BasisKey, Fraction]]] = {k: [] for k in tracked}
    for edge in edges(edge_generators(m1.algebra_mode, gen_range)):
        if edge is None:
            return None
        key, t1, c1, c2 = edge
        adj[key].append((t1, Fraction(c2, c1)))
        adj[t1].append((key, Fraction(c1, c2)))
    # a spanning forest, the least key of each component scaled by 1
    for start in sorted(tracked):
        if start in scale:
            continue
        scale[start] = 1
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt, ratio in adj[cur]:
                if nxt not in scale:
                    scale[nxt] = _coefficient(scale[cur] * ratio)
                    stack.append(nxt)
    # check every equation on a wider batch of (generator, key) pairs, which
    # holds each edge above
    for edge in edges(edge_generators(m1.algebra_mode, gen_range + 1)):
        if edge is None:
            return None
        key, t1, c1, c2 = edge
        if c1 * scale[t1] != c2 * scale[key]:
            return None
    mapping = tuple((k, k.shifted(shift), scale[k]) for k in sorted(tracked))
    # a key and its image differ in parity by the parity of the shift and the
    # two parity twists, the same at every key: read it at one
    src, dst, _ = mapping[0]
    parity = "even" if m1.vector_parity(src) == m2.vector_parity(dst) else "odd"
    return IntertwinerWitness(mapping, parity)


# ---------------------------------------------------------------------------
# catalogue and classification table
# ---------------------------------------------------------------------------


def verify_identity_catalogue(
    max_n: int,
    algebra_level: bool = False,
    window: Window | None = None,
    max_m: int = 6,
    sweep: int = 2,
) -> list[CheckReport]:
    """The displayed-identity inventory: compatibility displays, the
    reconstruction identities, the centralizer suite, the primed bracket
    table, and the consequence chains on a formal-parameter module window."""
    if max_n < 2:
        raise AlgebraError("max_n must be at least 2")
    window = window or Window(-8, 8, 0)
    small = min(max_n, 3)
    reports: list[CheckReport] = []
    reports += compat_reports(small)
    reports += action_rep_reports(small)
    reports += reconstruction_reports(max_n)
    reports += centralizer_reports(max_n, max_n)
    reports += psi_table_reports(min(max_n, 5))
    reports += annihilator_reports(gamma(LAMBDA, B), window, max_m, sweep, algebra_level)[1]
    return sort_reports(reports)


def classification_table() -> list[dict]:
    """Classification rows with the names of the certifying checks."""
    rows = [
        {
            "algebra": "khat",
            "family": "highest weight modules",
            "conditions": "support bounded above",
            "status": "out-of-scope",
            "certificate": None,
        },
        {
            "algebra": "khat",
            "family": "lowest weight modules",
            "conditions": "support bounded below",
            "status": "out-of-scope",
            "certificate": None,
        },
        {
            "algebra": "khat",
            "family": "gamma(l,b) and pi twists",
            "conditions": "l not integral, or b not in {0, 1/2}",
            "status": "simple",
            "certificate": "simplicity-grid/khat",
        },
        {
            "algebra": "khat",
            "family": "gamma(l,b), l integral, b in {0, 1/2}",
            "conditions": "reducible with simple sub-quotient gamma'(l,b)",
            "status": "reducible",
            "certificate": "simplicity-grid/khat",
        },
        {
            "algebra": "khat",
            "family": "gamma(l1,b1) ~ gamma(l2,b2)",
            "conditions": "l1-l2 integral and b1=b2; or l1 not integral, "
                          "l1-l2 integral and {b1,b2}={1/2,0} (parity-reversing)",
            "status": "isomorphism law",
            "certificate": "iso-suite",
        },
        {
            "algebra": "khat",
            "family": "gamma'(0,0) ~ pi(gamma'(0,1/2))",
            "conditions": "even isomorphism after one parity change",
            "status": "isomorphism law",
            "certificate": "iso-suite",
        },
        {
            "algebra": "kplus",
            "family": "gamma(l,b)",
            "conditions": "simple iff l not integral",
            "status": "simple",
            "certificate": "simplicity-grid/kplus",
        },
        {
            "algebra": "kplus",
            "family": "gamma+(0,b)",
            "conditions": "simple for every b (jet structure)",
            "status": "simple",
            "certificate": "simplicity-grid/kplus",
        },
        {
            "algebra": "kplus",
            "family": "gamma-(0,b)",
            "conditions": "simple for every b (jet structure)",
            "status": "simple",
            "certificate": "simplicity-grid/kplus",
        },
    ]
    return rows
