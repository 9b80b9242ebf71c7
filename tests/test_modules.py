"""The weight-module family: actions, axiom residuals, parity, weights."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nscheck.modules as modules
from nscheck.algebra import (
    A_ONE,
    XI,
    AElement,
    AlgebraMode,
    AMonomial,
    C,
    G,
    L,
    LieElement,
    basis,
    gen_act_amon,
    half,
    jet_coefficient,
)
from nscheck.analysis import (
    action_rep_reports,
    centralizer_reports,
    compat_reports,
    find_intertwiner,
    jacobi_family_reports,
    minimal_annihilator,
    module_axiom_reports,
    psi_table_reports,
    reconstruction_reports,
    simplicity_verdict,
)
from nscheck.enveloping import SmashElement, g_prime, l_prime, omega
from nscheck.modules import (
    EVERYTHING,
    NONNEGATIVE,
    NOTHING,
    BasisKey,
    Family,
    GammaModule,
    KeySet,
    ModuleError,
    ModuleVector,
    SignConvention,
    Window,
    act,
    gamma,
    gamma_minus,
    gamma_plus,
    gamma_prime,
    module_axiom_residual,
    parity_change,
    parse_module_descriptor,
)
from nscheck.scalars import B, LAMBDA, ZERO, Scalar

F = Fraction
CORRECTED = SignConvention.CORRECTED
PRINTED = SignConvention.PAPER_PRINTED


def vec(k, eps=0, coeff=1):
    return ModuleVector({BasisKey(k, eps): coeff})


class TestMakeModule:
    def test_generic_point(self):
        m = gamma(F(1, 3), F(1, 4))
        assert m.descriptor() == "gamma(1/3,1/4)"

    def test_gamma_plus_formal_b(self):
        m = gamma_plus(B)
        assert m.algebra_mode is AlgebraMode.KPLUS
        assert m.descriptor() == "gamma+(0,b)"

    def test_gamma_plus_requires_zero_lambda(self):
        # at lambda = 1, L(-1) moves t^0 out of the half-line k >= 0
        with pytest.raises(ModuleError):
            GammaModule(Scalar.of(1), Scalar.of(0), Family.GAMMA_PLUS, top=NONNEGATIVE,
                        algebra_mode=AlgebraMode.KPLUS)

    def test_gamma_plus_requires_contact_mode(self):
        with pytest.raises(ModuleError):
            GammaModule(Scalar.of(0), Scalar.of(0), Family.GAMMA_PLUS, top=NONNEGATIVE,
                        algebra_mode=AlgebraMode.KHAT)

    def test_gamma_prime_wrong_role_rejected(self):
        # at lambda = b = 0 the key (0,0) spans an invariant line, so it can be
        # projected away, but the other keys do not span a submodule
        with pytest.raises(ModuleError):
            GammaModule(
                Scalar.of(0), Scalar.of(0), Family.GAMMA_PRIME,
                top=KeySet(frozenset({BasisKey(0, 0)}), cofinite=True),
            )

    def test_gamma_prime_over_kplus(self):
        # the closure check probes only generators the contact mode admits
        for b in (0, F(1, 2)):
            m = gamma_prime(0, b, AlgebraMode.KPLUS)
            assert m.algebra_mode is AlgebraMode.KPLUS
            assert (m.sub, m.top) == (gamma_prime(0, b).sub, gamma_prime(0, b).top)

    def test_gamma_prime_bogus_exclusion(self):
        with pytest.raises(ModuleError):
            GammaModule(
                Scalar.of(F(1, 3)), Scalar.of(F(1, 4)), Family.GAMMA_PRIME,
                sub=KeySet(frozenset({BasisKey(0, 0)})),
            )


# rationals p/q with q <= 4 and |p/q| <= 4: the grid of the gamma' law
GRID = sorted({F(p, q) for q in range(1, 5) for p in range(-4 * q, 4 * q + 1)})


class TestGammaPrimeCut:
    """gamma_prime's derived cut against the law, written out here: the cut
    exists exactly for integral lambda with b in {0, 1/2}; it is at the key
    of weight lambda + b + k + eps/2 = 0; that key is projected away (a
    quotient, S = {key}) iff b = 0, and omitted as a sub (T = all keys but
    it) iff b = 1/2."""

    @staticmethod
    def law(lam, b):
        if lam.denominator != 1 or b not in (0, F(1, 2)):
            return NOTHING, EVERYTHING
        degree = -(lam + b)
        k = math.floor(degree)
        key = frozenset({BasisKey(k, int(2 * (degree - k)))})
        return (KeySet(key), EVERYTHING) if b == 0 else (NOTHING, KeySet(key, cofinite=True))

    @pytest.mark.parametrize("mode", [AlgebraMode.KHAT, AlgebraMode.KPLUS], ids=lambda m: m.value)
    def test_grid(self, mode):
        assert len(GRID) ** 2 == 2401
        for lam, b in product(GRID, repeat=2):
            m = gamma_prime(lam, b, mode)
            assert (m.sub, m.top) == self.law(lam, b), (lam, b)


class TestAction:
    def test_l_on_even(self):
        m = gamma(0, 0)
        assert act(L(1), vec(2), m) == vec(3, coeff=2)

    def test_g_on_odd_both_conventions(self):
        for conv in (CORRECTED, PRINTED):
            m = gamma(0, 0, convention=conv)
            assert act(G(half(1)), vec(0, 1), m) == vec(1, coeff=-1)

    def test_l0_weight_on_odd(self):
        m = gamma(LAMBDA, B)
        got = act(L(0), vec(5, 1), m)
        want = ModuleVector({BasisKey(5, 1): LAMBDA + 5 + B + F(1, 2)})
        assert got == want

    def test_a_multiplication(self):
        m = gamma(0, 0)
        got = act(AElement.monomial(2), vec(3, 1), m)
        assert got == vec(5, 1)
        assert act(AElement.monomial(0, 1), vec(3, 1), m).is_zero()

    def test_g_convention_sign(self):
        mc = gamma(LAMBDA, B, convention=CORRECTED)
        mp = gamma(LAMBDA, B, convention=PRINTED)
        got_c = act(G(half(1)), vec(0), mc)
        got_p = act(G(half(1)), vec(0), mp)
        assert got_c == got_p.scale(-1)
        assert got_c == ModuleVector({BasisKey(0, 1): LAMBDA + 2 * B})

    def test_central_element_acts_as_zero(self):
        m = gamma(F(1, 3), F(1, 4))
        assert act(C, vec(0), m).is_zero()

    def test_central_element_rejected_outside_khat(self):
        m = gamma(F(1, 3), F(1, 4), AlgebraMode.KPLUS)
        with pytest.raises(ModuleError):
            act(C, vec(0), m)

    def test_kplus_bounds_enforced(self):
        m = gamma(F(1, 3), F(1, 4), AlgebraMode.KPLUS)
        with pytest.raises(ModuleError):
            act(L(-2), vec(0), m)

    def test_smash_element_acts_right_to_left(self):
        m = gamma(F(1, 3), F(1, 4))
        elem = omega(1, 0, 1)  # = -L_1 in normal form
        got = act(elem, vec(2), m)
        assert got == act(L(1), vec(2), m).scale(-1)

    def test_gamma_minus_projects(self):
        m = gamma_minus(F(1, 4))
        got = act(L(3), vec(-2), m)  # target key 1 >= 0 is projected away
        assert got.is_zero()
        got = act(L(1), vec(-3), m)
        assert got == vec(-2, coeff=Scalar.of(-3 + F(1, 2)))

    def test_gamma_plus_stays_inside(self):
        m = gamma_plus(F(1, 4))
        assert act(L(-1), vec(0), m).is_zero()
        assert act(G(half(-1)), vec(0, 1), m) == vec(0, coeff=-1)

    def test_gamma_prime_quotient_projects(self):
        m = gamma_prime(0, 0)
        assert act(L(-1), vec(1), m).is_zero()  # image would be the excluded t^0

    def test_gamma_prime_sub_untouched(self):
        m = gamma_prime(0, F(1, 2))
        got = act(G(half(-1)), vec(0), m)  # coefficient into (-1,1) vanishes
        assert got.is_zero()
        got = act(L(-1), vec(0, 1), m)  # likewise from the odd side
        assert got.is_zero()

    def test_coefficient_algebra_rejected_on_proper_subquotient(self):
        m = gamma_prime(0, F(1, 2))
        with pytest.raises(ModuleError):
            act(AElement.monomial(1), vec(0), m)


class TestActBuildsOneVector:
    """``act`` folds on plain coefficient tables and builds one
    ModuleVector per call, its result."""

    MOD = gamma(LAMBDA, B, AlgebraMode.K)
    ELEMENTS = {
        "gen": G(half(1)),
        "lie": LieElement({L(1): Scalar.of(1), L(-1): Scalar.of(2), G(half(-1)): LAMBDA},
                          AlgebraMode.K),
        "a": AElement({AMonomial(2): Scalar.of(1), XI: Scalar.of(3), AMonomial(-1, 1): B}),
        "smash": SmashElement({
            (A_ONE, (L(-1), L(0), L(2))): Scalar.of(1),
            (AMonomial(1), (G(half(-1)), L(1))): Scalar.of(2),
            (XI, (L(0),)): B,
            (AMonomial(-2), ()): Scalar.of(F(1, 2)),
        }, AlgebraMode.K),
    }

    @pytest.mark.parametrize("name", sorted(ELEMENTS))
    def test_one_construction_per_call(self, name, monkeypatch):
        v = vec(0) + vec(2, 1) + vec(-1, coeff=LAMBDA)
        built = []
        init = ModuleVector.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModuleVector, "__init__", counting)
        out = act(self.ELEMENTS[name], v, self.MOD)
        assert len(built) == 1
        assert not out.is_zero()


class TestModuleAxiom:
    def test_ll_pair_both_conventions(self):
        for conv in (CORRECTED, PRINTED):
            m = gamma(LAMBDA, B, convention=conv)
            for k in range(-3, 4):
                assert module_axiom_residual(L(1), L(-1), BasisKey(k, 0), m).is_zero()
                assert module_axiom_residual(L(1), L(-1), BasisKey(k, 1), m).is_zero()

    def test_odd_odd_printed_witness(self):
        m = gamma(LAMBDA, B, convention=PRINTED)
        for k in (-2, 0, 3):
            got = module_axiom_residual(G(half(1)), G(half(-1)), BasisKey(k, 0), m)
            want = ModuleVector({BasisKey(k, 0): (LAMBDA + k + B) * 4})
            assert got == want

    def test_odd_odd_corrected_vanishes(self):
        m = gamma(LAMBDA, B, convention=CORRECTED)
        for k in (-2, 0, 3):
            assert module_axiom_residual(G(half(1)), G(half(-1)), BasisKey(k, 0), m).is_zero()
            assert module_axiom_residual(G(half(1)), G(half(-1)), BasisKey(k, 1), m).is_zero()

    def test_corrected_sweep(self):
        m = gamma(LAMBDA, B)
        gens = [L(n) for n in range(-2, 3)] + [G(half(d)) for d in (-3, -1, 1, 3)]
        for x, y in product(gens, repeat=2):
            for key in (BasisKey(-1, 0), BasisKey(2, 1)):
                assert module_axiom_residual(x, y, key, m).is_zero(), (x.render(), y.render())


def displayed_action(lam, b, sigma, gen, key):
    """The module docstring's four displayed formulas, written out:
    (target, coefficient) of gen on key, or None for the center."""
    k = key.k
    if gen.kind == "C":
        return None
    if gen.kind == "L":
        n = gen.index.as_int()
        if key.eps == 0:
            return BasisKey(n + k, 0), lam + k + b * (n + 1)
        return BasisKey(n + k, 1), lam + k + (n + 1) * (b + F(1, 2))
    n = int(gen.index.as_fraction() - F(1, 2))
    if key.eps == 0:
        return BasisKey(n + k, 1), sigma * (k + lam + 2 * b * (n + 1))
    return BasisKey(n + k + 1, 0), Scalar.of(-1)


class TestDisplayedFormulas:
    """gen_action on the plain family equals the displayed formulas."""

    @pytest.mark.parametrize("mode", list(AlgebraMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("conv", [CORRECTED, PRINTED], ids=lambda c: c.value)
    @pytest.mark.parametrize("lam,b", [(LAMBDA, B), (F(1, 3), F(1, 4)), (0, F(1, 2)),
                                       (-2, 0)], ids=["formal", "generic", "locus-half", "locus-0"])
    def test_oracle(self, mode, conv, lam, b):
        sigma = 1 if conv is CORRECTED else -1
        lam_s, b_s = Scalar.of(lam), Scalar.of(b)
        gens = basis(5, mode)
        for m in (gamma(lam, b, mode, conv), parity_change(gamma(lam, b, mode, conv))):
            for g in gens:
                for k in range(-10, 11):
                    for eps in (0, 1):
                        key = BasisKey(k, eps)
                        want = displayed_action(lam_s, b_s, sigma, g, key)
                        if want is None or want[1].is_zero():
                            want = ()
                        else:
                            want = (want,)
                        assert m.gen_action(g, key) == want, (m, g.render(), key.render())


def jet_failures(mod: GammaModule) -> list[BasisKey]:
    """Keys in -6..6 on which L'(0) does not act as b or some primed element
    of positive degree, L'(1..4) or G'(1/2..7/2), does not act as 0."""
    # the primed elements live in A # k, or A+ # k+ in contact mode
    mode = AlgebraMode.K if mod.algebra_mode.has_center else mod.algebra_mode
    l0 = l_prime(0, mode)
    zero = [l_prime(n, mode) for n in range(1, 5)] + [g_prime(n, mode) for n in range(1, 5)]
    bad = []
    for k in range(-6, 7):
        for eps in (0, 1):
            key = BasisKey(k, eps)
            if not mod.admissible(key):
                continue
            v = ModuleVector.basis(key)
            if act(l0, v, mod) != v.scale(mod.b) or any(not act(x, v, mod).is_zero()
                                                        for x in zero):
                bad.append(key)
    return bad


JET_MODULES = {
    "gamma(l,b)/k": lambda: gamma(LAMBDA, B, AlgebraMode.K),
    "gamma(l,b)/khat": lambda: gamma(LAMBDA, B),
    "pi(gamma(l,b))/k": lambda: parity_change(gamma(LAMBDA, B, AlgebraMode.K)),
    "gamma+(0,b)": lambda: gamma_plus(B),
    "gamma-(0,b)": lambda: gamma_minus(B),
}


class TestJetCertificate:
    """gamma(l,b) = A_l (x) C_b: L'(0) acts as b and every primed element of
    positive degree acts as 0."""

    @pytest.mark.parametrize("name", list(JET_MODULES))
    def test_certificate_holds(self, name):
        assert jet_failures(JET_MODULES[name]()) == []

    def test_halved_g_jet_coefficient_is_killed(self, monkeypatch):
        def halved(self, gen, mono):
            # mutant: 2b(n+1) -> b(n+1) in the G jet term; L is unchanged
            n = gen.index.doubled // 2
            if AMonomial(n, gen.parity).times(mono) is None:
                return ZERO
            return self.lam + self.b * (n + 1)

        monkeypatch.setattr(GammaModule, "jet_term", halved)
        counts = [len(jet_failures(build())) for build in JET_MODULES.values()]
        assert counts == [13, 13, 13, 7, 6]

    def test_unscaled_jet_term_is_killed(self, monkeypatch):
        """A numeric handle reads D mu from ``jet_term``, D = 12 here.  A
        mutant that returns mu acts as gamma(l/D, b/D), a module all the
        same, so the module axiom cannot see it; L'(0) acting as b/D, not
        b, fails the certificate on every key."""
        assert jet_failures(gamma(F(1, 3), F(1, 4))) == []

        def unscaled(self, gen, mono):
            # mutant: mu at the parameters, not D times it
            return jet_coefficient(gen, mono, self.lam.numeric_value(), self.b.numeric_value())

        monkeypatch.setattr(GammaModule, "jet_term", unscaled)
        mod = gamma(F(1, 3), F(1, 4))
        gens = [g for g in basis(2) if g.kind != "C"]
        assert all(module_axiom_residual(x, y, BasisKey(k, eps), mod).is_zero()
                   for x, y in product(gens, gens) for k in (-1, 0, 1) for eps in (0, 1))
        assert len(jet_failures(mod)) == 26


def weight(m: GammaModule, key: BasisKey) -> Scalar:
    """The diagonal eigenvalue l + b + k + eps/2 of the grading operator."""
    return m.lam + m.b + key.degree.as_fraction()


class TestWeights:
    def test_examples(self):
        m = gamma(LAMBDA, B)
        assert weight(m, BasisKey(0, 0)) == LAMBDA + B
        assert weight(m, BasisKey(0, 1)) == LAMBDA + B + F(1, 2)

    def test_distinct_keys_distinct_weights(self):
        m = gamma(F(1, 3), F(1, 4))
        seen = set()
        for k in range(-5, 6):
            for eps in (0, 1):
                w = weight(m, BasisKey(k, eps))
                assert w not in seen
                seen.add(w)

    @given(st.integers(-4, 4), st.integers(0, 1),
           st.sampled_from([L(-2), L(0), L(3), G(half(-3)), G(half(1))]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_weight_compatibility(self, k, eps, g):
        m = gamma(LAMBDA, B)
        key = BasisKey(k, eps)
        for target, _ in m.gen_action(g, key):
            assert weight(m, target) == weight(m, key) + g.degree.as_fraction()


class TestParityChange:
    def test_involution(self):
        m = gamma(0, 0)
        assert parity_change(parity_change(m)) == m

    def test_flips_vector_parity(self):
        m = gamma(0, 0)
        assert m.vector_parity(BasisKey(0, 0)) == 0
        assert parity_change(m).vector_parity(BasisKey(0, 0)) == 1

    def test_action_unchanged(self):
        m = gamma(F(1, 3), F(1, 4))
        p = parity_change(m)
        for g in (L(2), G(half(-1))):
            assert act(g, vec(1, 1), m) == act(g, vec(1, 1), p)


class TestGammaPlusClosure:
    def test_every_contact_generator_stays_inside(self):
        m = gamma_plus(B)
        gens = [L(n) for n in range(-1, 4)] + [G(half(d)) for d in (-1, 1, 3, 5)]
        for g in gens:
            for k in range(0, 5):
                for eps in (0, 1):
                    for target, _ in m.gen_action(g, BasisKey(k, eps)):
                        assert target.k >= 0


NUMERIC_POINTS = [(0, 0), (0, F(1, 2)), (2, F(1, 2)), (-1, 0), (F(1, 3), F(1, 4)),
                  (F(-7, 3), F(5, 4))]


class TestNumericAgainstFormal:
    """A handle with numeric or mixed parameters acts as gamma(l,b) with its
    coefficients evaluated at the handle's point, coefficient for
    coefficient and in canonical form."""

    @pytest.mark.parametrize("convention", list(SignConvention))
    @pytest.mark.parametrize("mode", list(AlgebraMode))
    def test_actions_are_substituted_formal_actions(self, mode, convention):
        formal = gamma(LAMBDA, B, mode, convention)
        # (handle, value of l, value of b); None keeps that slot formal
        handles = [(gamma(lam, b, mode, convention), lam, b) for lam, b in NUMERIC_POINTS]
        handles += [(gamma(F(1, 3), B, mode, convention), F(1, 3), None),
                    (gamma(LAMBDA, F(1, 4), mode, convention), None, F(1, 4))]
        keys = [BasisKey(k, eps) for k in range(-6, 7) for eps in (0, 1)]
        for g, key in product(basis(4, mode), keys):
            symbolic = formal.gen_action(g, key)
            for mod, lam, b in handles:
                want = tuple((t, v) for t, c in symbolic
                             if (v := Scalar.of(c).substitute(lam, b)))
                got = mod.gen_action(g, key)
                assert got == want, (mod, g, key)
                for _, c in got:
                    if type(c) is not Scalar:  # a rational follows the rule
                        assert type(c) is int or c.denominator > 1, (mod, g, key, c)
                        continue
                    canonical = Scalar(c.num, c.den)
                    assert not c.is_numeric(), (mod, g, key)
                    assert [(e, v, type(v)) for e, v in c.num.items()] == \
                        [(e, v, type(v)) for e, v in canonical.num.items()], (mod, g, key)
                    assert c.den == canonical.den, (mod, g, key)


    @pytest.mark.parametrize("convention", list(SignConvention))
    @pytest.mark.parametrize("mode", list(AlgebraMode))
    def test_grid_denominators(self, mode, convention):
        """The same at seeded points of height <= 7 in both parameters, with
        odd and coprime denominators (D up to 2 * 7 * 5 = 70) and integral
        lambda, as the library sweeps draw them."""
        pool = sorted({F(p, q) for q in range(1, 8) for p in range(-7, 8)})
        rng = random.Random("nscheck-denominators")
        points = [(F(-2, 5), F(3, 7))] + [(rng.choice(pool), rng.choice(pool)) for _ in range(19)]
        points += [(F(lam), rng.choice(pool)) for lam in (-3, -1, 0, 2)]
        formal = gamma(LAMBDA, B, mode, convention)
        handles = [(gamma(lam, b, mode, convention), lam, b) for lam, b in points]
        keys = [BasisKey(k, eps) for k in range(-3, 4) for eps in (0, 1)]
        for g, key in product(basis(2, mode), keys):
            symbolic = formal.gen_action(g, key)
            for mod, lam, b in handles:
                want = tuple((t, v) for t, c in symbolic
                             if (v := Scalar.of(c).substitute(lam, b)))
                got = mod.gen_action(g, key)
                assert got == want, (mod, g, key)
                assert all(type(c) is int or type(c) is F and c.denominator > 1
                           for _, c in got), (mod, g, key)


SCALAR_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__")


@pytest.fixture
def scalar_ops(monkeypatch) -> list:
    """The list of Scalar arithmetic operations performed while it is live."""
    calls = []
    for name in SCALAR_ARITHMETIC:
        def counted(*args, _op=getattr(Scalar, name)):
            calls.append(_op)
            return _op(*args)

        monkeypatch.setattr(Scalar, name, counted)
    return calls


def test_numeric_handles_act_without_scalar_arithmetic(scalar_ops):
    """A numeric handle computes each coefficient in Q and stores it as an
    int or a Fraction: filling its action table performs no Scalar
    arithmetic."""
    handles = [gamma(F(1, 3), F(1, 4)), gamma(0, F(1, 2)), gamma(LAMBDA, B)]
    counts = []
    for mod in handles:
        scalar_ops.clear()
        for g, k, eps in product(basis(3), range(-10, 11), (0, 1)):
            mod.gen_action(g, BasisKey(k, eps))
        counts.append(len(scalar_ops))
    # the formal handle is the control: it does count
    assert counts[:2] == [0, 0] and counts[2] > 0


def test_numeric_gamma_prime_builds_without_scalar_arithmetic(scalar_ops):
    """gamma' reads the weight of the key it may cut at from numeric
    parameters as a rational; only a formal parameter takes the Scalar sum
    l + b."""
    counts = []
    for lam, b in [(0, 0), (F(-3, 2), F(1, 2)), (F(1, 3), 0), (LAMBDA, B)]:
        scalar_ops.clear()
        gamma_prime(lam, b)
        counts.append(len(scalar_ops))
    # the formal handle is the control: it does count
    assert counts[:3] == [0, 0, 0] and counts[3] > 0


def test_numeric_handles_act_without_fraction_arithmetic(monkeypatch, fresh_tables):
    """A numeric handle computes each coefficient in machine integers over
    one common denominator D and builds at most one Fraction, the quotient
    by D: filling its action table performs no Fraction arithmetic.  The
    caches start empty, so A's own action is computed here too."""
    handles = [gamma(F(1, 3), F(1, 4)), gamma(F(-7, 3), F(5, 4)), gamma_plus(F(1, 4)),
               parity_change(gamma_prime(0, F(1, 2))), gamma(LAMBDA, B)]
    calls = []
    for name in SCALAR_ARITHMETIC:  # the same operator names as Scalar's
        def counted(*args, _op=getattr(Fraction, name)):
            calls.append(_op)
            return _op(*args)

        monkeypatch.setattr(Fraction, name, counted)
    counts = []
    for mod in handles:
        calls.clear()
        for g, k, eps in product(basis(3, mod.algebra_mode), range(-10, 11), (0, 1)):
            if mod.admissible(BasisKey(k, eps)):
                mod.gen_action(g, BasisKey(k, eps))
        counts.append(len(calls))
    # the formal handle is the control: it does count
    assert counts[:4] == [0, 0, 0, 0] and counts[4] > 0


def fill_table(mod, key=BasisKey) -> int:
    """Fill the entries of the generators of ``basis(3)`` that the mode of
    ``mod`` admits on its admissible keys ``key(k, eps)``, k in -10..10;
    returns the size of its table."""
    for g, k, eps in product(basis(3, mod.algebra_mode), range(-10, 11), (0, 1)):
        if mod.admissible(BasisKey(k, eps)):
            mod.gen_action(g, key(k, eps))
    return len(mod._table)


@pytest.fixture
def derivation_calls(monkeypatch, fresh_tables) -> list:
    """A list that records each call of A's derivation rule
    ``gen_act_amon`` made by ``modules``, from empty caches."""
    calls = []

    def counted(op, key):
        calls.append((op, key))
        return gen_act_amon(op, key)

    monkeypatch.setattr(modules, "gen_act_amon", counted)
    return calls


def test_handles_share_the_handle_free_part_of_an_entry(derivation_calls):
    """The target, A's coefficient and the sign condition of a generator's
    entry depend on no handle, so they are made once per process: after one
    handle's table is filled, the same entries of a handle with other
    parameters or another mode make no miss in the shared cache and call no
    ``gen_act_amon``."""
    entries = len(basis(3)) * 42
    assert fill_table(gamma(F(1, 3), F(1, 4))) == entries
    made = modules._gen_part.cache_info().misses
    assert made == len(derivation_calls) == entries
    sizes = [fill_table(mod) for mod in (gamma(F(-7, 3), F(5, 4)),
                                         gamma(F(1, 2), F(1, 3), AlgebraMode.KPLUS))]
    assert sizes == [entries, len(basis(3, AlgebraMode.KPLUS)) * 42]
    assert modules._gen_part.cache_info().misses == made
    assert len(derivation_calls) == entries


def test_module_tables_keep_no_copy_of_the_derivation_cache(derivation_calls):
    """``gen_act_amon`` is a plain rule with no cache of its own, and
    ``_gen_part`` calls it once per entry it makes, so filling a handle's
    table keeps one copy of the rule's values on the module path, its own:
    refilling the table of an equal handle calls the rule no more."""
    assert not hasattr(gen_act_amon, "cache_info")
    calls = derivation_calls
    assert fill_table(gamma(F(1, 3), F(1, 4))) == len(basis(3)) * 42
    made = len(calls)
    assert made == len(set(calls)) == modules._gen_part.cache_info().currsize
    assert fill_table(gamma(F(1, 3), F(1, 4))) == len(basis(3)) * 42
    assert len(calls) == made


def test_probe_generators_are_read_only():
    # the probe generators are shared by every cut check: a write raises
    assert {type(gens) for gens in modules._PROBE_GENS.values()} == {tuple}
    with pytest.raises(TypeError):
        modules._PROBE_GENS[AlgebraMode.K] = ()


def test_tables_do_not_depend_on_the_order_of_handles(fresh_tables):
    """The shared part of an entry is keyed by (op, key) alone, so it holds
    nothing that depends on a handle (its convention's sign, say): the same
    handles, filled in two opposite orders from empty caches, get identical
    tables.  A handle keyed by A-monomials fills first, and every target
    still has the type of its key."""
    def tables(order) -> list[dict]:
        for cache in fresh_tables:
            cache.cache_clear()
        fill_table(gamma(F(1, 3), F(1, 4)), AMonomial)
        mods = [make(c) for c in (CORRECTED, PRINTED) for make in (
            lambda c: gamma(F(1, 3), F(1, 4), convention=c),
            lambda c: gamma(LAMBDA, B, convention=c),
            lambda c: gamma_plus(B, c),
            lambda c: parity_change(gamma_prime(0, F(1, 2), convention=c)))]
        for mod in order(mods):
            fill_table(mod)
        return [dict(mod._table) for mod in mods]

    forward, backward = tables(list), tables(reversed)
    assert forward == backward
    assert {type(entry[0]) for table in forward for entry in table.values() if entry} == {BasisKey}


def test_numeric_handles_fold_without_fraction_arithmetic(monkeypatch):
    """act folds a numeric handle's integer table over one common
    denominator: acting with the operators of the annihilator and chain
    sweeps, Fraction coefficients included, performs no Fraction arithmetic
    and builds at most one Fraction per output coefficient.  The handles'
    tables are filled by a first pass, so the count sees the fold alone."""
    handles = [gamma(F(1, 3), F(1, 4)), gamma(F(-7, 3), F(5, 4)), gamma_plus(F(1, 4)),
               parity_change(gamma(F(1, 3), F(1, 2), AlgebraMode.K))]
    ops = {mod: [omega(1, 0, 2, mod.algebra_mode), omega(2, 1, 3, mod.algebra_mode),
                 l_prime(2, mod.algebra_mode if mod.algebra_mode is AlgebraMode.KPLUS
                         else AlgebraMode.K),
                 LieElement({L(1): F(1, 2), G(half(1)): F(-2, 3)}, mod.algebra_mode)]
           for mod in handles}
    vecs = [vec(k, eps, coeff) for k in range(1, 4) for eps in (0, 1) for coeff in (1, F(3, 2))]

    def sweep() -> int:
        outputs = 0
        for mod in handles:
            for x, v in product(ops[mod], vecs):
                outputs += len(act(x, v, mod).terms)
        return outputs

    assert sweep() > 0
    arithmetic, built, new = [], [], Fraction.__new__
    for name in SCALAR_ARITHMETIC:
        def counted(*args, _op=getattr(Fraction, name)):
            arithmetic.append(_op)
            return _op(*args)

        monkeypatch.setattr(Fraction, name, counted)

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    outputs = sweep()
    assert arithmetic == [] and 0 < len(built) <= outputs


def test_numeric_handles_decide_without_scalar_arithmetic(scalar_ops):
    """The module axiom, the simplicity verdicts, an operator action and the
    intertwiner search on numeric handles run in Q from end to end."""
    mods = [gamma(F(1, 3), F(1, 4)), gamma(0, F(1, 2)), gamma_plus(F(1, 4))]
    pairs = [(gamma(F(1, 3), F(1, 4)), gamma(F(4, 3), F(1, 4))),
             (gamma(F(1, 3), F(1, 2)), gamma(F(4, 3), 0)),
             (gamma_prime(0, 0), parity_change(gamma_prime(0, F(1, 2)))),
             (gamma(F(1, 3), 0), gamma(F(1, 3), F(1, 4))),
             (gamma(F(1, 3), F(1, 4)), gamma(F(1, 2), F(1, 4))),
             (gamma(-2, 0), gamma(-1, 0))]
    window = Window(-10, 10, 3)
    scalar_ops.clear()
    for mod in mods:
        gens = [g for g in basis(2, mod.algebra_mode) if g.kind != "C"]
        for x, y in product(gens, gens):
            assert module_axiom_residual(x, y, BasisKey(1, 0), mod).is_zero()
        simplicity_verdict(mod, window, 3)
    assert not act(omega(1, 0, 2), vec(0, 1), mods[0]).is_zero()
    found = [find_intertwiner(m1, m2, window, 3) is not None for m1, m2 in pairs]
    assert found == [True, True, True, False, False, True]
    assert len(scalar_ops) == 0
    # the formal module axiom is the control: it does count
    assert module_axiom_residual(G(half(1)), G(half(-1)), BasisKey(0, 0),
                                 gamma(LAMBDA, B)).is_zero()
    assert len(scalar_ops) > 0


def test_passing_structure_suites_do_no_scalar_arithmetic(scalar_ops):
    """The structural suites run the representation law on the exact
    structure tables and wrap only a nonzero residual into Scalars, so a
    passing suite performs no Scalar arithmetic."""
    reports = jacobi_family_reports(2) + compat_reports(2) + action_rep_reports(2)
    assert {r.status for r in reports} == {"pass"}
    assert len(scalar_ops) == 0
    # the formal module axiom is the control: its table holds Scalars
    assert module_axiom_residual(G(half(1)), G(half(-1)), BasisKey(0, 0),
                                 gamma(LAMBDA, B)).is_zero()
    assert len(scalar_ops) > 0


@pytest.mark.parametrize("convention", list(SignConvention), ids=lambda c: c.value)
def test_formal_module_axiom_folds_without_symbolic_products(monkeypatch, convention):
    """The module axiom folds its op chains over the handle's integer table,
    as ``act`` does: on gamma(l,b) it reads no basis-level action and
    multiplies no two Scalars in l or b."""
    products, reads = [], []

    def counted(x, y, _op=Scalar.__mul__):
        if isinstance(y, Scalar) and not (x.is_numeric() or y.is_numeric()):
            products.append((x, y))
        return _op(x, y)

    def read(self, op, key, _read=GammaModule.gen_action):
        reads.append((op, key))
        return _read(self, op, key)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, counted)
    monkeypatch.setattr(GammaModule, "gen_action", read)
    reports = module_axiom_reports(gamma(LAMBDA, B, convention=convention), Window(-8, 8), 3)
    assert len(reports) > 0 and products == [] and reads == []
    # the counter is live: it does count a product of two symbolic Scalars
    assert LAMBDA * B and len(products) == 1


@pytest.mark.parametrize("suite", [
    lambda: reconstruction_reports(5),
    lambda: centralizer_reports(5, 5),
    lambda: psi_table_reports(5),
], ids=["reconstruction", "centralizer", "psi-table"])
def test_passing_smash_suites_do_no_scalar_arithmetic(suite, scalar_ops):
    """Elements keep the coefficient rule, so the smash-algebra suites run
    on ints and Fractions: a passing suite performs no Scalar arithmetic
    (before elements kept the rule: 1,426, 12,965 and 54,696 operations)."""
    reports = suite()
    assert {r.status for r in reports} == {"pass"}
    assert len(scalar_ops) == 0
    # the formal annihilator is the control: its module action holds Scalars
    order, report = minimal_annihilator(gamma(LAMBDA, B), Window(-3, 3), 6, 1)
    assert (order, report.status) == (3, "pass")
    assert len(scalar_ops) > 0


class TestDescriptors:
    def test_round_trip(self):
        for text in ("gamma(1/3,1/4)", "gamma+(0,b)", "gamma-(0,b)",
                     "gamma'(0,1/2)", "pi(gamma'(0,0))", "gamma(l,b)"):
            m = parse_module_descriptor(text)
            assert m.descriptor() == text

    def test_overrides(self):
        m = parse_module_descriptor("gamma(l,b)", lam_value=F(1, 3), b_value=F(1, 4))
        assert m.descriptor() == "gamma(1/3,1/4)"
        for text in ("gamma(0,b)", "gamma'(0,1/2)"):
            with pytest.raises(ModuleError):
                parse_module_descriptor(text, lam_value=F(1, 3))

    def test_errors(self):
        for bad in ("gamma(1/3)", "gamma[1,2]", "gamma(x,y)", "delta(0,0)", "gamma(1/0,0)"):
            with pytest.raises(ModuleError):
                parse_module_descriptor(bad)
        with pytest.raises(ModuleError):
            parse_module_descriptor("gamma+(1,0)")

    def test_window_invariants(self):
        with pytest.raises(ModuleError):
            Window(0, 10, 6)
        w = Window(-10, 10, 3)
        assert list(w.interior()) == list(range(-7, 8))


def test_vector_rendering():
    v = ModuleVector({BasisKey(3, 0): Scalar.of(2), BasisKey(3, 1): LAMBDA + B})
    assert v.render() == "2 * t^3 + (l + b) * t^3 xi"


def _outcome(action, *args) -> str:
    try:
        return " + ".join(f"{Scalar.of(c).render()} * {t.render()}" for t, c in action(*args))
    except Exception as exc:
        return type(exc).__name__


def action_table_lines(index: int, kmin: int, kmax: int):
    """One canonical dump of the basis-level action: per module (or its
    construction error), every key's admissibility, weight and parity, and
    every generator's and A-monomial's action or error class."""
    points = ("0,0", "0,1/2", "1/3,1/4", "2,0", "-1,1/2", "l,b")
    descriptors = ([f"gamma({p})" for p in points] + [f"gamma'({p})" for p in points]
                   + [f"gamma{s}(0,{b})" for s in "+-" for b in ("0", "1/2", "1/4", "b")])
    gens = basis(index)
    monos = [AMonomial(m, e) for m in range(-index, index + 1) for e in (0, 1)]
    keys = [BasisKey(k, eps) for k in range(kmin, kmax + 1) for eps in (0, 1)]
    for text, mode, conv in product(descriptors, AlgebraMode, SignConvention):
        head = f"{text}/{mode.value}/{conv.value}"
        try:
            plain = parse_module_descriptor(text, algebra_mode=mode, convention=conv)
        except ModuleError:
            yield f"{head}: ModuleError"
            continue
        for m in (plain, parity_change(plain)):
            yield f"{head}: {m.descriptor()}"
            for key in keys:
                yield (f"{key.render()}: {m.admissible(key)} {weight(m, key).render()} "
                       f"{m.vector_parity(key)}")
                for g in gens:
                    yield f"{g.render()} {key.render()}: {_outcome(m.gen_action, g, key)}"
                for a in monos:
                    yield f"{a.render()} {key.render()}: {_outcome(m.amon_action, a, key)}"


class TestActionTableDigest:
    """The basis-level action of every family, pinned byte for byte: the
    sha256 of :func:`action_table_lines` was recorded before the sub-quotient
    rule replaced the per-family branches."""

    DIGEST = "06a54000ddcdf90607a254628ff13e05a45e0b43d3c77521e8e37baf013f229c"

    def test_digest(self):
        h = hashlib.sha256()
        for line in action_table_lines(2, -3, 3):
            h.update(line.encode() + b"\n")
        assert h.hexdigest() == self.DIGEST
