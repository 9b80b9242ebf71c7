"""Verification suites, reachability verdicts, intertwiners, annihilators."""

import ast
import gc
import hashlib
import inspect
import random
import re
import sys
import textwrap
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import nscheck.analysis as analysis
from nscheck.algebra import AMonomial, AlgebraMode, G, L, basis, half
from nscheck.analysis import (
    JACOBI_FAMILIES,
    AnnihilatorBoundError,
    CheckReport,
    action_rep_reports,
    annihilator_reports,
    chain_reports,
    classification_table,
    compat_reports,
    edge_generators,
    find_intertwiner,
    jacobi_family_reports,
    minimal_annihilator,
    module_axiom_reports,
    module_edges,
    psi_table_reports,
    reachability_closure,
    reconstruction_reports,
    centralizer_reports,
    simplicity_verdict,
    sort_reports,
    verify_identity_catalogue,
    verify_jacobi,
    window_keys,
    _triple_family,
)
from nscheck.enveloping import g_prime, l_prime
from nscheck.modules import (
    BasisKey,
    ModuleError,
    Window,
    gamma,
    gamma_minus,
    gamma_plus,
    gamma_prime,
    parity_change,
    parse_module_descriptor,
)
from nscheck.scalars import B, LAMBDA, Scalar

F = Fraction
W = Window(-10, 10, 3)
KPLUS = AlgebraMode.KPLUS


class TestCheckReport:
    def test_fail_needs_witness(self):
        with pytest.raises(ValueError):
            CheckReport("x", "y", "fail", "p")

    def test_bad_status(self):
        with pytest.raises(ValueError):
            CheckReport("x", "y", "maybe")

    def test_sorting(self):
        reports = [CheckReport("b", "", "pass"), CheckReport("a", "", "pass")]
        assert [r.name for r in sort_reports(reports)] == ["a", "b"]

    def test_witness_omitted_on_pass(self):
        assert "witness" not in CheckReport("a", "", "pass").to_dict()


class TestJacobi:
    def test_range_three_passes(self):
        assert verify_jacobi(3).status == "pass"

    def test_families(self):
        reports = jacobi_family_reports(2)
        assert [r.status for r in reports] == ["pass"] * 5

    @pytest.mark.parametrize("index_range", [2, 4])
    def test_families_partition_the_triples(self, index_range):
        triples = list(product(basis(index_range), repeat=3))
        sizes = Counter(_triple_family(*t) for t in triples)
        # every triple lands in exactly one named family, and none is empty
        assert sum(sizes.values()) == len(basis(index_range)) ** 3
        assert set(sizes) == set(JACOBI_FAMILIES)
        assert all(sizes[fam] for fam in JACOBI_FAMILIES)

    def test_range_bound(self):
        with pytest.raises(ValueError):
            verify_jacobi(1)

    # the streaming sweep's traced peak per cached table entry (keys, value
    # tuples, cache bookkeeping and the sweep's transients) measured 190-340
    # bytes on CPython 3.11 at ranges 4 to 8
    BYTES_PER_CACHE_ENTRY = 400

    @pytest.mark.parametrize("index_range", [6, 7])
    def test_family_sweep_memory_is_bounded_by_the_table_caches(self, index_range, fresh_tables):
        """The family sweep streams its triples, so its traced peak is bounded
        by the entries of the table caches that it fills, which grow as the
        square of the range, and not by the triples, which grow as its cube:
        sorting the triples into per-family lists first peaked at 590-670
        bytes per entry at these ranges."""
        tracemalloc.start()
        try:
            reports = jacobi_family_reports(index_range)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.status for r in reports] == ["pass"] * 5
        entries = sum(cache.cache_info().currsize for cache in fresh_tables)
        assert peak <= self.BYTES_PER_CACHE_ENTRY * entries


@pytest.mark.parametrize("index_range", [5, 6])
@pytest.mark.parametrize("suite", [compat_reports, action_rep_reports], ids=lambda f: f.__name__)
def test_structural_sweep_memory_is_bounded_by_the_table_caches(suite, index_range, fresh_tables):
    """The compatibility and derivation-action sweeps stream their cases and
    keep no list that grows with the range, so their traced peak is bounded
    like the Jacobi family sweep's; they measured 250-325 (compat) and
    130-170 (action-rep) bytes per cached table entry at these ranges."""
    tracemalloc.start()
    try:
        reports = suite(index_range)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {r.status for r in reports} == {"pass"}
    entries = sum(cache.cache_info().currsize for cache in fresh_tables)
    assert peak <= TestJacobi.BYTES_PER_CACHE_ENTRY * entries


class TestReachability:
    def test_isolated_seed_at_origin(self):
        m = gamma(0, 0)
        got = reachability_closure(m, BasisKey(0, 0), W, 3)
        assert got == frozenset({BasisKey(0, 0)})

    def test_generic_seed_reaches_everything(self):
        m = gamma(0, 0)
        got = reachability_closure(m, BasisKey(1, 0), W, 3)
        interior = {BasisKey(k, e) for k in range(-7, 8) for e in (0, 1)}
        assert got == frozenset(interior)

    def test_excluded_key_unreachable_at_b_half(self):
        m = gamma(0, F(1, 2))
        got = reachability_closure(m, BasisKey(2, 0), W, 3)
        interior = {BasisKey(k, e) for k in range(-7, 8) for e in (0, 1)}
        assert got == frozenset(interior - {BasisKey(-1, 1)})

    def test_seed_outside_interior(self):
        with pytest.raises(ModuleError):
            reachability_closure(gamma(0, 0), BasisKey(9, 0), W, 3)


def lossy_module_edges(lost):
    """A mutant of ``module_edges`` that drops every edge for which ``lost`` holds."""
    real = analysis.module_edges

    def lossy(*args):
        return {key: [e for e in out if not lost(e)] for key, out in real(*args).items()}

    return lossy


def edges_into_t0(edge) -> bool:
    return edge.target == BasisKey(0, 0)


class TestSimplicity:
    def test_generic_simple(self):
        v = simplicity_verdict(gamma(F(1, 3), F(1, 4)), W, 3)
        assert v.kind == "simple"

    def test_reducible_with_complement_certificate(self):
        v = simplicity_verdict(gamma(0, F(1, 2)), W, 3)
        assert v.kind == "reducible"
        interior = {BasisKey(k, e) for k in range(-7, 8) for e in (0, 1)}
        assert set(v.certificate) == interior - {BasisKey(-1, 1)}

    def test_trivial_line_certificate(self):
        v = simplicity_verdict(gamma(0, 0), W, 3)
        assert v.kind == "reducible"
        assert v.certificate == (BasisKey(0, 0),)

    def test_b_away_from_locus_is_simple(self):
        assert simplicity_verdict(gamma(0, 1), W, 3).kind == "simple"

    def test_formal_generic_simple_with_locus(self):
        v = simplicity_verdict(gamma(F(1, 3), B, AlgebraMode.KPLUS), W, 3)
        assert v.kind == "simple"
        assert v.locus is not None
        assert "out@t^0" in v.locus

    def test_window_too_small(self):
        v = simplicity_verdict(gamma(0, 0), Window(-4, 4, 1), 3)
        assert v.kind == "inconclusive"

    # the window rule measures the interior that the verdict certifies: at
    # margin 10 or 8 the interior of -10..10 is too narrow, and these locus
    # points read simple
    @pytest.mark.parametrize("lam, margin", [(0, 10), (2, 8)])
    def test_wide_margin_is_inconclusive(self, lam, margin):
        assert simplicity_verdict(gamma(lam, F(1, 2)), Window(-10, 10, margin), 3).kind \
            == "inconclusive"

    def test_interior_of_four_gen_ranges_decides(self):
        # interior -6..6 spans 12 = 4*gen_range
        assert simplicity_verdict(gamma(0, F(1, 2)), Window(-9, 9, 3), 3).kind == "reducible"
        assert simplicity_verdict(gamma(0, F(1, 2)), Window(-9, 9, 4), 3).kind == "inconclusive"

    def test_gen_range_below_two_is_an_error(self):
        # L(-1), L(0), L(1), G(-1/2), G(1/2) span osp(1|2): none of them moves
        # gamma(0,1/4) off the keys k >= 0, which read as a false certificate
        with pytest.raises(ModuleError, match="gen_range >= 2"):
            simplicity_verdict(gamma(0, F(1, 4)), W, 1)

    def test_kplus_integral_lambda_reducible(self):
        assert simplicity_verdict(gamma(0, F(1, 4), KPLUS), W, 3).kind == "reducible"
        assert simplicity_verdict(gamma(1, F(1, 4), KPLUS), W, 3).kind == "reducible"

    def test_jet_families_simple(self):
        for b in (0, F(1, 2), 1):
            assert simplicity_verdict(gamma_plus(b), W, 3).kind == "simple"
            assert simplicity_verdict(gamma_minus(b), W, 3).kind == "simple"

    def test_gamma_plus_pure_contact_edges_sees_constants(self):
        # over the contact algebra alone the constants span an invariant
        # line of gamma+(0,0): no generator moves t^0; the jet structure
        # (t and xi act) removes it
        m = gamma_plus(0)
        assert all(m.gen_action(g, BasisKey(0, 0)) == ()
                   for g in edge_generators(KPLUS, 6))
        assert m.amon_action(AMonomial(1, 0), BasisKey(0, 0)) != ()
        assert simplicity_verdict(m, W, 3).kind == "simple"

    def test_window_stability(self):
        for win in (W, Window(-13, 13, 3)):
            assert simplicity_verdict(gamma(0, F(1, 2)), win, 3).kind == "reducible"
            assert simplicity_verdict(gamma(F(1, 3), F(1, 4)), win, 3).kind == "simple"

    @pytest.mark.parametrize("mod, window", [
        (gamma_minus(F(1, 4)), Window(0, 20, 3)),
        (gamma_plus(F(1, 4)), Window(-30, -10, 3)),
    ], ids=["gamma-minus", "gamma-plus"])
    def test_interior_without_keys_is_inconclusive(self, mod, window):
        v = simplicity_verdict(mod, window, 3)
        assert v.kind == "inconclusive"
        assert v.certificate is None
        assert v.detail == "the window interior holds no key of the module"

    # edge lists that lose every edge into t^0 of gamma(1/3,1/4), or every
    # A-edge of gamma+(0,0), yield a false certificate ({t^0} in the second
    # case); the basis-level action still moves it out
    @pytest.mark.parametrize("mod, lost", [
        (gamma(F(1, 3), F(1, 4)), edges_into_t0),
        (gamma_plus(0), lambda e: e.generator in {a.render() for a in analysis.A_EDGES}),
    ], ids=["edges-into-t0", "a-edges"])
    def test_certificate_rechecked_from_the_action(self, monkeypatch, mod, lost):
        monkeypatch.setattr(analysis, "module_edges", lossy_module_edges(lost))
        with pytest.raises(AssertionError, match="unsound certificate"):
            simplicity_verdict(mod, W, 3)


# the certificate is the minimal submodule with the least first key
@pytest.mark.parametrize("mod", [
    gamma(0, 0), gamma(0, F(1, 2)), gamma(1, F(1, 4), KPLUS), gamma_prime(0, 0, KPLUS),
], ids=repr)
def test_reducible_certificate_contract(mod):
    v = simplicity_verdict(mod, W, 3)
    assert v.kind == "reducible"
    cert = frozenset(v.certificate)
    assert list(v.certificate) == sorted(cert)
    closures = {key: reachability_closure(mod, key, W, 3)
                for key in window_keys(mod, W, interior_only=True)}
    assert closures[v.certificate[0]] == cert
    assert all(closures[key] == cert for key in cert)
    for key in closures:
        if key < v.certificate[0]:
            # key generates a submodule that is not minimal
            assert any(closures[j] != closures[key] for j in closures[key])


@pytest.mark.parametrize("mod", [gamma(F(1, 3), F(1, 4)), gamma_plus(F(1, 4))], ids=repr)
def test_simple_verdict_ends_generate_everything(mod):
    assert simplicity_verdict(mod, W, 3).kind == "simple"
    interior = sorted(window_keys(mod, W, interior_only=True))
    for key in (interior[0], interior[-1]):
        assert reachability_closure(mod, key, W, 3) == frozenset(interior)


class TestIntertwiner:
    def test_integer_shift(self):
        got = find_intertwiner(gamma(F(1, 3), F(1, 4)), gamma(F(4, 3), F(1, 4)), W, 3)
        assert got is not None and got.parity == "even"

    def test_exceptional_pair(self):
        got = find_intertwiner(gamma(F(1, 3), F(1, 2)), gamma(F(4, 3), 0), W, 3)
        assert got is not None and got.parity == "odd"

    def test_mismatched_b(self):
        assert find_intertwiner(gamma(F(1, 3), 0), gamma(F(1, 3), F(1, 4)), W, 3) is None

    def test_non_integer_shift(self):
        assert find_intertwiner(gamma(F(1, 3), F(1, 4)), gamma(F(1, 2), F(1, 4)), W, 3) is None

    def test_subquotient_parity_pair(self):
        m1 = gamma_prime(0, 0)
        m2 = parity_change(gamma_prime(0, F(1, 2)))
        got = find_intertwiner(m1, m2, W, 3)
        assert got is not None and got.parity == "even"

    def test_symmetry(self):
        pairs = [
            (gamma(F(1, 3), F(1, 4)), gamma(F(4, 3), F(1, 4))),
            (gamma(F(1, 3), F(1, 2)), gamma(F(4, 3), 0)),
            (gamma(F(1, 3), 0), gamma(F(1, 3), F(1, 4))),
        ]
        for m1, m2 in pairs:
            fwd = find_intertwiner(m1, m2, W, 3)
            bwd = find_intertwiner(m2, m1, W, 3)
            assert (fwd is None) == (bwd is None)

    # lambda1 - lambda2 is not integral in both pairs, yet the keys whose
    # shifted image stays in the interior matched
    @pytest.mark.parametrize("m1, m2, window", [
        (gamma(F(1, 3), 0), gamma(F(-85, 6), 0), W),
        (gamma(1, 0), gamma(F(1, 2), 0), Window(0, 0, 0)),
    ], ids=["offset-29/2", "window-0..0"])
    def test_undecidable_window_is_an_error(self, m1, m2, window):
        with pytest.raises(ModuleError, match="cannot decide an intertwiner"):
            find_intertwiner(m1, m2, window, 3)

    def test_window_rule_subtracts_the_offset(self):
        # interior -6..6 spans 12 = 4*gen_range: offset 0 decides, offset 1 does not
        m = gamma(F(1, 3), F(1, 4))
        assert find_intertwiner(m, m, Window(-9, 9, 3), 3) is not None
        with pytest.raises(ModuleError):
            find_intertwiner(m, gamma(F(4, 3), F(1, 4)), Window(-9, 9, 3), 3)

    def test_requires_numeric_parameters(self):
        with pytest.raises(ModuleError):
            find_intertwiner(gamma(LAMBDA, B), gamma(0, 0), W, 3)

    # found has no third value: a window whose interior matches no key of the
    # two modules is an error, not "no intertwiner"
    @pytest.mark.parametrize("mod, window", [
        (gamma_plus(F(1, 4)), Window(-30, -10, 3)),
        (gamma_minus(F(1, 4)), Window(10, 30, 3)),
    ], ids=["gamma-plus", "gamma-minus"])
    def test_window_without_matched_keys_is_an_error(self, mod, window):
        with pytest.raises(ModuleError, match="holds no interior key of"):
            find_intertwiner(mod, mod, window, 3)

    def test_scalings_are_nonzero(self):
        got = find_intertwiner(gamma(F(1, 3), F(1, 2)), gamma(F(4, 3), 0), W, 3)
        assert all(c for _, _, c in got.mapping)


# every exit of find_intertwiner, searching from the first module to the
# second at gen_range 3: no intertwiner (None), the parity of the map found,
# or the message of the ModuleError raised
INTERTWINER_EXITS = [
    # preconditions
    ("gamma(l,b)", "gamma(0,0)", W, "numeric parameters required"),
    ("gamma+(0,1/4)", "gamma(1/3,1/4)", W, "needs a common algebra mode"),
    ("gamma(1/3,1/4)", "gamma(1/2,1/4)", W, None),  # weight offset 1/6
    ("gamma(1/3,0)", "gamma(-85/6,0)", W, "cannot decide an intertwiner"),
    ("gamma+(0,1/4)", "gamma+(0,1/4)", Window(-30, -10, 3), "holds no interior key of"),
    # a tracked key whose image the second module does not admit
    ("gamma(0,0)", "gamma'(0,0)", W, None),
    ("gamma+(0,1/4)", "gamma-(0,1/4)", W, None),
    # a matched key of the second module whose preimage the first does not admit
    ("gamma'(0,0)", "gamma(0,0)", W, None),
    # edge patterns differ within gen_range ...
    ("gamma(0,0)", "gamma(0,1/2)", W, None),
    ("gamma(1/4,1/4)", "gamma(3/4,-1/4)", W, None),
    ("gamma(0,0)", "gamma(1/2,0)", W, None),  # an edge of the second module only
    # ... or only at index gen_range + 1, in the checking pass
    ("gamma(-3/4,3/4)", "gamma(-7/4,5/4)", W, None),
    # the edge equations have no common solution
    ("gamma(1/3,1/4)", "gamma(4/3,-3/4)", W, None),
    ("gamma(1/3,1/4)", "gamma(1/3,5/4)", W, None),
    # found
    ("gamma(1/3,1/4)", "gamma(4/3,1/4)", W, "even"),
    ("gamma(1/3,1/2)", "gamma(4/3,0)", W, "odd"),
    ("gamma'(0,0)", "gamma'(0,1/2)", W, "odd"),  # a half-odd shift, no parity twist
    ("gamma'(0,0)", "pi(gamma'(0,1/2))", W, "even"),
]


def intertwiner_exit(m1: str, m2: str, window: Window):
    """What find_intertwiner gives on the descriptors: None, the parity of
    the map found, or the message of the ModuleError raised."""
    try:
        got = find_intertwiner(parse_module_descriptor(m1), parse_module_descriptor(m2), window, 3)
    except ModuleError as exc:
        return str(exc)
    return None if got is None else got.parity


@pytest.mark.parametrize("m1, m2, window, want", INTERTWINER_EXITS,
                         ids=[f"{m1}->{m2}" for m1, m2, _, _ in INTERTWINER_EXITS])
def test_intertwiner_exit(m1, m2, window, want):
    got = intertwiner_exit(m1, m2, window)
    if want in (None, "even", "odd"):
        assert got == want
    else:
        assert want in got


@pytest.mark.parametrize("top, want", [
    (1, "even intertwiner on 4 keys: t^0 -> t^0 x 1, t^0 xi -> t^0 xi x 1, t^1 -> t^1 x 1, "
        "t^1 xi -> t^1 xi x 1"),
    (2, "even intertwiner on 6 keys: t^0 -> t^0 x 1, t^0 xi -> t^0 xi x 1, t^1 -> t^1 x 1, "
        "t^1 xi -> t^1 xi x 1, ..."),
])
def test_intertwiner_rendering_marks_only_keys_left_out(top, want):
    # the rendering lists the first four keys and ends in ", ..." only when
    # the map has more
    mod = gamma_plus(F(1, 4))
    assert find_intertwiner(mod, mod, Window(-11, top, 0), 3).render() == want


def exit_lines(func) -> set[int]:
    """The line of every return and raise statement of ``func``, a method
    or the functions nested in it included, found by AST."""
    source, first = inspect.getsourcelines(func)
    tree = ast.parse(textwrap.dedent("".join(source)))
    return {node.lineno + first - 1 for node in ast.walk(tree)
            if isinstance(node, (ast.Return, ast.Raise))}


def code_objects(code) -> set:
    """``code`` and every code object nested in it."""
    found = {code}
    for const in code.co_consts:
        if inspect.iscode(const):
            found |= code_objects(const)
    return found


def lines_run(func, run) -> set[int]:
    """The lines that ``run()`` executes in ``func`` and the functions nested in it."""
    codes, ran = code_objects(func.__code__), set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: lines if frame.f_code in codes else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def test_every_intertwiner_exit_runs():
    # a line trace of the exit cases, limited to find_intertwiner and the
    # functions nested in it: a new exit needs a case in INTERTWINER_EXITS
    def run():
        for m1, m2, window, _ in INTERTWINER_EXITS:
            intertwiner_exit(m1, m2, window)

    assert sorted(exit_lines(find_intertwiner) - lines_run(find_intertwiner, run)) == []


# every exit of simplicity_verdict and reachability_closure: (function,
# module descriptor, window, the gen_range of a verdict or the seed of a
# closure at gen_range 3, the edges a lossy module_edges mutant drops or
# None, the outcome)
VERDICT_EXITS = [
    (simplicity_verdict, "gamma(0,1/4)", W, 1, None, "a simplicity verdict needs gen_range >= 2; "
     "below that the generators span only osp(1|2)"),
    (simplicity_verdict, "gamma(0,1/2)", Window(-9, 9, 4), 3, None,
     "inconclusive: window interior narrower than 4*gen_range"),
    (simplicity_verdict, "gamma-(0,1/4)", Window(0, 20, 3), 3, None,
     "inconclusive: the window interior holds no key of the module"),
    (simplicity_verdict, "gamma(1/3,1/4)", W, 3, None,
     "simple: interior digraph strongly connected"),
    (simplicity_verdict, "gamma(1/3,1/4)", W, 3, edges_into_t0,
     "unsound certificate: L(3) moves t^-3 out of it"),
    (simplicity_verdict, "gamma(0,1/2)", W, 3, None,
     "reducible: least minimal submodule, generated by t^-7"),
    (reachability_closure, "gamma(0,1/2)", W, BasisKey(2, 0), None, "29 keys"),
    (reachability_closure, "gamma(0,0)", W, BasisKey(9, 0), None,
     "seed t^9 outside the window interior"),
]


def verdict_exit(monkeypatch, func, descriptor, window, arg, lost) -> str:
    """What ``func`` gives on the module: the kind and detail of a verdict,
    the size of a closure, or the message of the error raised."""
    mod = parse_module_descriptor(descriptor)
    args = (mod, window, arg) if func is simplicity_verdict else (mod, arg, window, 3)
    with monkeypatch.context() as patch:
        if lost is not None:
            patch.setattr(analysis, "module_edges", lossy_module_edges(lost))
        try:
            got = func(*args)
        except (ModuleError, AssertionError) as exc:
            return str(exc)
    return f"{len(got)} keys" if func is reachability_closure else f"{got.kind}: {got.detail}"


@pytest.mark.parametrize("func, descriptor, window, arg, lost, want", VERDICT_EXITS,
                         ids=["gen-range", "window-rule", "empty-interior", "simple", "unsound",
                              "reducible", "closure", "seed-outside"])
def test_verdict_exit(monkeypatch, func, descriptor, window, arg, lost, want):
    assert verdict_exit(monkeypatch, func, descriptor, window, arg, lost) == want


@pytest.mark.parametrize("func", [simplicity_verdict, reachability_closure],
                         ids=lambda f: f.__name__)
def test_every_verdict_exit_runs(monkeypatch, func):
    # a new exit of the two verdict functions needs a case in VERDICT_EXITS
    def run():
        for case in VERDICT_EXITS:
            verdict_exit(monkeypatch, *case[:5])

    assert sorted(exit_lines(func) - lines_run(func, run)) == []


def isomorphism_law(l1: F, b1: F, l2: F, b2: F) -> str | None:
    """Row 5 of the classification, stated here: gamma(l1,b1) ~ gamma(l2,b2)
    iff l1 - l2 is integral and either b1 = b2 (an even map) or l1 is not
    integral and {b1, b2} = {0, 1/2} (a parity-reversing one)."""
    if (l1 - l2).denominator != 1:
        return None
    if b1 == b2:
        return "even"
    return "odd" if l1.denominator != 1 and {b1, b2} == {0, F(1, 2)} else None


def test_intertwiner_follows_the_isomorphism_law():
    # seeded pairs at a half-integral weight offset of at most 3/2, so that
    # W decides: a third keep b, a third take {b1, b2} = {0, 1/2}, a third
    # draw b2 and a weight offset freely
    rng = random.Random(22)
    lams = [F(p, q) for q in (1, 2, 3, 4) for p in range(-3, 4)]
    bs = [F(p, q) for q in (1, 2, 3, 4) for p in range(-2, 3)]
    seen = Counter()
    for _ in range(45):
        l1, b1, kind = rng.choice(lams), rng.choice(bs), rng.randrange(3)
        if kind == 0:
            l2, b2 = l1 + rng.randint(-1, 1), b1
        elif kind == 1:
            b1, b2 = rng.sample([F(0), F(1, 2)], 2)
            l2 = l1 + rng.randint(-1, 1)
        else:
            b2 = rng.choice(bs)
            l2 = l1 + b1 - b2 - F(rng.randint(-2, 2), 2)
        want = isomorphism_law(l1, b1, l2, b2)
        got = find_intertwiner(gamma(l1, b1), gamma(l2, b2), W, 3)
        assert (None if got is None else got.parity) == want, (l1, b1, l2, b2)
        seen[want] += 1
    assert set(seen) == {None, "even", "odd"}, seen


def test_module_handles_die_after_verdicts():
    # the action cache lives on the handle, so no verdict keeps a module alive
    mods = [gamma(F(1, 3), F(1, 4)), gamma(2, 0), gamma(F(-1, 2), F(1, 2))]
    for m in mods:
        simplicity_verdict(m, W, 3)
    pair = (gamma_prime(0, 0), parity_change(gamma_prime(0, F(1, 2))))
    assert find_intertwiner(*pair, W, 3) is not None
    refs = [weakref.ref(m) for m in mods + list(pair)]
    del mods, pair, m
    gc.collect()
    assert [r for r in refs if r() is not None] == []


class TestAnnihilator:
    def test_minimal_order_three(self):
        m, report = minimal_annihilator(gamma(F(1, 3), F(1, 4)), Window(-8, 8, 0), 6)
        assert m == 3
        assert report.status == "pass"
        assert "minimality: Omega^(2)" in report.params

    def test_formal_parameters(self):
        m, report = minimal_annihilator(gamma(LAMBDA, B), Window(-6, 6, 0), 6)
        assert m == 3 and report.status == "pass"

    def test_bound_exceeded(self):
        with pytest.raises(AnnihilatorBoundError):
            minimal_annihilator(gamma(F(1, 3), F(1, 4)), Window(-6, 6, 0), 2)

    def test_kplus_shifted_sweep(self):
        m, report = minimal_annihilator(gamma_plus(F(1, 4)), Window(-6, 6, 0), 6)
        assert report.status == "pass"
        assert m <= 6

    def test_window_stability(self):
        m1, _ = minimal_annihilator(gamma(F(1, 3), F(1, 4)), Window(-6, 6, 0), 6)
        m2, _ = minimal_annihilator(gamma(F(1, 3), F(1, 4)), Window(-9, 9, 0), 6)
        assert m1 == m2


class TestAnnihilatorReports:
    def test_order_then_chains(self):
        m, reports = annihilator_reports(gamma(LAMBDA, B), Window(-6, 6, 0), 6, 1)
        assert m == 3
        assert [r.name for r in reports] == [
            "annihilator/gamma(l,b)", "chain/t-L", "chain/t-G", "chain/G-L"]
        assert all(r.status == "pass" for r in reports)

    def test_bound_exceeded_is_one_failed_report(self):
        m, reports = annihilator_reports(gamma(F(1, 3), F(1, 4)), Window(-6, 6, 0), 2, 1)
        assert m is None
        (report,) = reports
        assert report.status == "fail"
        assert report.params == "module=gamma(1/3,1/4); window=-6..6(margin 0); max_m=2"
        assert report.residual_witness == "annihilator order exceeds bound 2 on gamma(1/3,1/4)"


class TestChains:
    def test_module_level_chains_vanish(self):
        mod = gamma(LAMBDA, B)
        reports = chain_reports(mod, 3, Window(-6, 6, 0), 2)
        assert [r.status for r in reports] == ["pass"] * 3

    def test_algebra_level_reported_as_info(self):
        mod = gamma(LAMBDA, B)
        reports = chain_reports(mod, 3, Window(-4, 4, 0), 1, algebra_level=True)
        infos = [r for r in reports if r.status == "info"]
        assert len(infos) == 3
        assert all("False" in r.params for r in infos)

    def test_kplus_chains(self):
        reports = chain_reports(gamma_plus(F(1, 4)), 3, Window(-6, 6, 0), 1)
        assert [r.status for r in reports] == ["pass"] * 3


# a window that holds no key of the module is rejected, never reported as
# checks passed over no instances
@pytest.mark.parametrize("check", [
    lambda mod, window: module_axiom_reports(mod, window, 1),
    lambda mod, window: minimal_annihilator(mod, window, 6),
    lambda mod, window: chain_reports(mod, 1, window),
], ids=["module_axiom_reports", "minimal_annihilator", "chain_reports"])
@pytest.mark.parametrize("mod, window", [
    (gamma_minus(F(1, 4)), Window(10, 30, 0)),
    (gamma_plus(F(1, 4)), Window(-9, -3, 0)),
], ids=["gamma-minus", "gamma-plus"])
def test_window_without_keys_is_an_error(check, mod, window):
    message = f"window {window.render()} holds no key of {mod.descriptor()}"
    with pytest.raises(ModuleError, match=re.escape(message)):
        check(mod, window)


class TestCatalogue:
    def test_small_catalogue_passes(self):
        reports = verify_identity_catalogue(2, window=Window(-5, 5, 0))
        assert reports, "catalogue must not be empty"
        assert all(r.status in ("pass", "info") for r in reports)
        names = [r.name for r in reports]
        assert names == sorted(names)

    def test_annihilator_bound_exceeded_fails(self):
        reports = verify_identity_catalogue(2, window=Window(-4, 4, 0), max_m=1)
        (failed,) = [r for r in reports if r.status == "fail"]
        assert failed.name == "annihilator/gamma(l,b)"
        assert not [r for r in reports if r.name.startswith("chain/")]

    def test_mutated_entry_fails_with_witness(self, monkeypatch):
        # [L'(0), G'(3/2)] reads 2*G'(3/2) instead of 3/2*G'(3/2)
        lp0, gp2 = l_prime(0, AlgebraMode.K), g_prime(2, AlgebraMode.K)
        original = analysis.smash_bracket

        def mutated(x, y):
            return gp2.scale(F(2)) if (x, y) == (lp0, gp2) else original(x, y)

        monkeypatch.setattr(analysis, "smash_bracket", mutated)
        reports = verify_identity_catalogue(2, window=Window(-5, 5, 0))
        fails = [(r.name, r.params, r.residual_witness) for r in reports if r.status == "fail"]
        assert fails == [("psi-table/LG/m=0/n=1", "m=0, n=1",
                          "1/2*1 (x) G(3/2) - xi (x) L(1) - t (x) G(1/2) + 2*t*xi (x) L(0)"
                          " + 1/2*t^2 (x) G(-1/2) - t^2*xi (x) L(-1)")]


class TestViaSuites:
    def test_reconstruction_suite(self, flipped_extension):
        reports = reconstruction_reports(4)
        assert all(r.status == "pass" for r in reports)
        flipped_extension()
        mutated = reconstruction_reports(0)
        assert mutated[0].status == "fail"

    def test_centralizer_suite(self):
        reports = centralizer_reports(3, 3)
        assert all(r.status == "pass" for r in reports)

    def test_psi_suite(self):
        reports = psi_table_reports(2)
        assert all(r.status == "pass" for r in reports)

    def test_compat_suite(self):
        reports = compat_reports(2)
        assert len(reports) == 8
        assert all(r.status == "pass" for r in reports)


def test_classification_table_rows():
    rows = classification_table()
    families = [r["family"] for r in rows]
    assert "highest weight modules" in families
    assert "gamma+(0,b)" in families
    assert "gamma-(0,b)" in families
    out_of_scope = [r for r in rows if r["status"] == "out-of-scope"]
    assert all(r["certificate"] is None for r in out_of_scope)
    certified = [r for r in rows if r["certificate"]]
    assert certified, "in-scope rows must carry certifying check names"


# classification row 3: gamma'(l,b) at the locus is the simple sub-quotient
@pytest.mark.parametrize("lam,b", [(0, 0), (0, F(1, 2)), (2, 0), (-1, F(1, 2)), (3, F(1, 2))])
def test_gamma_prime_simple_over_khat(lam, b):
    assert simplicity_verdict(gamma_prime(lam, b), W, 3).kind == "simple"


def test_descriptor_integration():
    m = parse_module_descriptor("pi(gamma'(0,1/2))")
    v = simplicity_verdict(m, W, 3)
    assert v.kind == "simple"  # the sub-quotient itself is simple


def test_edge_records():
    edges = module_edges(gamma(F(1, 3), F(1, 4)), W, 2)
    interior = set(edges)
    assert BasisKey(0, 0) in interior
    for src, recs in edges.items():
        for e in recs:
            assert e.source == src
            assert e.target in interior
            assert e.coefficient
    down = [e for e in edges[BasisKey(0, 0)] if e.generator == "L(-1)"]
    assert len(down) == 1 and down[0].target == BasisKey(-1, 0)


def edge_lines():
    """One line per edge of :func:`module_edges` (window W, gen_range 2) for
    gamma at three points in khat and kplus, and for gamma+(0,1/4)."""
    mods = [(f"gamma({lam},{b}) {mode.value}", gamma(lam, b, mode))
            for lam, b in [(F(1, 3), F(1, 4)), (0, 0), (2, F(1, 2))]
            for mode in (AlgebraMode.KHAT, KPLUS)]
    mods.append(("gamma+(0,1/4)", gamma_plus(F(1, 4))))
    for label, mod in mods:
        edges = module_edges(mod, W, 2)
        for src in sorted(edges):
            for e in edges[src]:
                yield (f"{label} {e.source.render()} -> {e.target.render()} "
                       f"{e.generator} {Scalar.of(e.coefficient).render()}")


def test_edge_records_digest():
    # recorded before the edge records became named tuples
    h = hashlib.sha256()
    for line in edge_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == "92d9cf4d72554379b0835defc73ea2c2e25915f0df2fd477170f631a072f8eea"


def verdict_modules():
    """The acceptance grid in khat and kplus, gamma' at the locus points of
    classification row 3, gamma+ and gamma- at three b, and gamma(l,b)."""
    grid_l = [F(-1), F(0), F(1, 3), F(1), F(7, 5)]
    grid_b = [F(-1), F(0), F(1, 4), F(1, 2), F(1)]
    for lam in grid_l:
        for b in grid_b:
            for mode in (AlgebraMode.KHAT, KPLUS):
                yield gamma(lam, b, mode)
    for lam, b in [(0, 0), (0, F(1, 2)), (2, 0), (-1, F(1, 2)), (3, F(1, 2))]:
        yield gamma_prime(lam, b)
    for b in (0, F(1, 2), F(1, 4)):
        yield gamma_plus(b)
        yield gamma_minus(b)
    yield gamma(LAMBDA, B)
    yield gamma(LAMBDA, B, KPLUS)


def verdict_lines():
    """One line per verdict: descriptor, mode, window, gen_range, kind and
    the rendered certificate."""
    for mod in verdict_modules():
        for win in (W, Window(-13, 9, 2)):
            for gen_range in (2, 3):
                v = simplicity_verdict(mod, win, gen_range)
                cert = "-" if v.certificate is None else ", ".join(
                    k.render() for k in v.certificate)
                yield (f"{mod.descriptor()} {mod.algebra_mode.value} {win.render()} "
                       f"{v.gen_range} {v.kind} [{cert}]")


def test_verdict_digest():
    # recorded while the verdict still ran a strongly-connected-components pass
    h = hashlib.sha256()
    for line in verdict_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == "444432113725cb6948d365024b79a5a7f641f43197809b18afdac99575109057"
