"""The integer fold of ``modules.act`` against the fold it replaced.

``reference_act`` is the module action as it was before the integer fold:
each term's PBW factors, right to left, then its A-part, each extended
linearly from the basis-level action with ``algebra.extend`` on plain
coefficient tables; ``reference_axiom`` is the module axiom as it was, the
representation law over that action.  ``act`` must agree with it
coefficient for coefficient and by coefficient type, raise what it raises,
and agree also where an output leaves the base encoding and the fold is
redone, as must ``module_axiom_residual`` there.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from test_analysis import exit_lines, lines_run
from test_modules import NUMERIC_POINTS

import nscheck.modules as modules
from nscheck.algebra import (
    A_ONE,
    AElement,
    AlgebraMode,
    AMonomial,
    G,
    Gen,
    L,
    LieElement,
    basis,
    bracket_basis,
    extend,
    half,
    jet_coefficient,
    rep_residual,
)
from nscheck.analysis import a_g_chain, a_l_chain
from nscheck.enveloping import SmashElement, g_prime, gl_sum, l_prime, omega, smash_product
from nscheck.modules import (
    BasisKey,
    GammaModule,
    ModuleError,
    ModuleVector,
    SignConvention,
    act,
    gamma,
    gamma_minus,
    gamma_plus,
    gamma_prime,
    module_axiom_residual,
    parity_change,
)
from nscheck.scalars import B, LAMBDA, Scalar

F = Fraction


def reference_act(x, v: ModuleVector, mod) -> ModuleVector:
    """The module action before the integer fold, kept as an oracle."""
    if isinstance(x, Gen):
        terms = [((A_ONE, (x,)), 1)]
    elif isinstance(x, LieElement):
        terms = [((A_ONE, (g,)), c) for g, c in x.terms.items()]
    elif isinstance(x, AElement):
        terms = [((m, ()), c) for m, c in x.terms.items()]
    elif isinstance(x, SmashElement):
        terms = x.terms.items()
    else:
        raise ModuleError(f"cannot act with object of type {type(x).__name__}")

    def image(term):
        a, pbw = term
        vec = v.terms
        if a == A_ONE and not pbw:  # the unit element checks its keys in its turn
            for key in vec:
                if not mod.admissible(key):
                    raise ModuleError(f"key {key.render()} not admissible for {mod.descriptor()}")
        for g in reversed(pbw):
            vec = extend(vec.items(), partial(mod.gen_action, g))
        if a != A_ONE:
            vec = extend(vec.items(), partial(mod.amon_action, a))
        return vec.items()

    return ModuleVector(extend(terms, image))


def reference_axiom(x: Gen, y: Gen, key: BasisKey, mod) -> ModuleVector:
    """The module axiom before the fold: the representation law over the
    basis-level action, kept as an oracle."""
    return ModuleVector(rep_residual(mod.gen_action, x, y, bracket_basis(x, y, False), key,
                                     x.parity and y.parity))


def describe(c):
    """A coefficient with its type, and a Scalar with the terms and their
    types of its numerator and denominator."""
    if isinstance(c, Scalar):
        return ("Scalar",) + tuple(sorted((e, v, type(v).__name__) for e, v in p.items())
                                   for p in (c.num, c.den))
    return (type(c).__name__, c)


def outcome(action, x, v, mod):
    """The terms of ``action(x, v, mod)``, described, or the error raised."""
    try:
        got = action(x, v, mod)
    except (ValueError, ArithmeticError) as exc:  # both sides must raise the same
        return f"{type(exc).__name__}: {exc}"
    return sorted((key, describe(c)) for key, c in got.terms.items())


SCALARS = [LAMBDA + F(1, 2), 2 * B - 3, LAMBDA * B, 1 / (B + 1), LAMBDA / (LAMBDA - B)]


def coefficient(rng, scalars=True):
    """An int, a Fraction or (with ``scalars``) a Scalar in l or b."""
    kind = rng.randrange(3 if scalars else 2)
    if kind == 0:
        return rng.choice([1, -1, 2, -3, 5])
    if kind == 1:
        return F(rng.choice([1, -1, 3, -5]), rng.choice([2, 3, 4, 6]))
    return rng.choice(SCALARS)


def elements(rng, mode, scalars=True):
    """Seeded elements that act in ``mode``: generators, Lie and A elements,
    sums of smash products, and the operators of the annihilator and
    chain sweeps."""
    gens = basis(2, mode)
    smode = AlgebraMode.K if mode.has_center else mode
    monos = [AMonomial(k, e) for k in range(0 if mode is AlgebraMode.KPLUS else -2, 3)
             for e in (0, 1)]
    out = [rng.choice(gens) for _ in range(3)]
    out += [LieElement({g: coefficient(rng, scalars) for g in rng.sample(gens, 3)}, mode)
            for _ in range(2)]
    out += [AElement({m: coefficient(rng, scalars) for m in rng.sample(monos, 2)})
            for _ in range(2)]
    for smash_mode in (mode, smode):
        gens = basis(2, smash_mode)
        for _ in range(3):
            total = SmashElement.zero(smash_mode)
            for _ in range(rng.randint(1, 3)):
                prod = SmashElement.gen(rng.choice(gens), smash_mode)
                for _ in range(rng.randint(0, 2)):
                    if smash_mode.has_center or rng.randrange(2):
                        factor = SmashElement.gen(rng.choice(gens), smash_mode)
                    else:
                        factor = SmashElement({(rng.choice(monos), ()): 1}, smash_mode)
                    prod = smash_product(prod, factor)
                total = total + prod.scale(coefficient(rng, scalars))
            out.append(total)
    start = 1 if mode is AlgebraMode.KPLUS else -1
    out += [omega(start + 1, start, 2, mode), gl_sum(half(2 * start + 1), start, 2, mode),
            a_l_chain(3, start, 3, smode), a_g_chain(3, 2 * start + 1, 3, smode),
            l_prime(2, smode), g_prime(1, smode)]
    return out


def vectors(rng, scalars=True):
    """Seeded vectors of one to three keys."""
    keys = [BasisKey(k, e) for k in range(-4, 5) for e in (0, 1)]
    out = [ModuleVector.basis(rng.choice(keys)) for _ in range(2)]
    for _ in range(3):
        out.append(ModuleVector({k: coefficient(rng, scalars)
                                 for k in rng.sample(keys, rng.randint(1, 3))}))
    return out


def handles(mode, convention):
    """Numeric, mixed and formal handles, with cuts and parity twins."""
    points = [(F(1, 3), F(1, 4)), (2, F(1, 2)), (0, 0), (F(-7, 3), F(5, 4)), (LAMBDA, B),
              (F(1, 3), B), (LAMBDA, F(1, 4)), (LAMBDA * LAMBDA - B, B), (LAMBDA / (B + 1), B)]
    out = [gamma(lam, b, mode, convention) for lam, b in points]
    out += [gamma_prime(lam, b, mode, convention) for lam, b in [(0, 0), (0, F(1, 2)), (-1, 0)]]
    if mode is AlgebraMode.KPLUS:
        out += [cut(b, convention) for cut in (gamma_plus, gamma_minus)
                for b in (F(1, 4), F(1, 2), B)]
    return out + [parity_change(mod) for mod in out]


@pytest.fixture
def redos(monkeypatch) -> list:
    """The radices at which a fold was redone while it is live."""
    seen, fold = [], modules._fold

    def spy(chains, vec, mod, table=None):
        if table is not None:
            seen.append(table.radix)
        return fold(chains, vec, mod, table)

    monkeypatch.setattr(modules, "_fold", spy)
    return seen


@pytest.mark.parametrize("convention", list(SignConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("mode", list(AlgebraMode), ids=lambda m: m.value)
def test_act_agrees_with_the_reference_fold(mode, convention):
    rng = random.Random(f"nscheck-fold/{mode.value}/{convention.value}")
    pairs = list(product(elements(rng, mode), vectors(rng)))
    kinds = set()
    for mod in handles(mode, convention):
        for x, v in rng.sample(pairs, 30):
            want = outcome(reference_act, x, v, mod)
            assert outcome(act, x, v, mod) == want, (mod, x, v)
            kinds.add("error" if isinstance(want, str) else "value")
    assert kinds == {"error", "value"}


@pytest.mark.parametrize("convention", list(SignConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("mode", list(AlgebraMode), ids=lambda m: m.value)
def test_formal_act_substitutes_to_numeric_act(mode, convention):
    rng = random.Random(f"nscheck-fold-points/{mode.value}/{convention.value}")
    formal = gamma(LAMBDA, B, mode, convention)
    numeric = [(gamma(lam, b, mode, convention), lam, b) for lam, b in NUMERIC_POINTS]
    for x, v in product(elements(rng, mode, scalars=False), vectors(rng, scalars=False)):
        symbolic = act(x, v, formal).terms
        for mod, lam, b in numeric:
            want = {k: q for k, c in symbolic.items() if (q := Scalar.of(c).substitute(lam, b))}
            assert act(x, v, mod).terms == want, (mod, x, v)


def test_affine_handles_fold_at_the_base_radix(redos):
    """Seeded draws on handles with affine parameters, the sweep operators
    among them, stay inside the base encoding: no fold is redone."""
    rng = random.Random("nscheck-fold-base")
    for mode in AlgebraMode:
        xs, vs = elements(rng, mode), vectors(rng)
        for lam, b in [(LAMBDA, B), (F(1, 3), B), (F(1, 3), F(1, 4))]:
            mod = gamma(lam, b, mode)
            for x, v in product(xs, vs):
                act(x, v, mod)
    assert redos == []


def test_outputs_outside_the_encoding_are_redone(monkeypatch, redos):
    """A key of 2^70 gives entries of height above X/2 = 2^63, and a radix
    of (8, 2) holds neither the degree in b nor the height of most outputs;
    each such fold, the module axiom's too, is redone at a radix that holds
    it, with the reference result."""
    huge = [ModuleVector.basis(BasisKey(2 ** 70, 1)), ModuleVector({BasisKey(-2 ** 70, 0): 3})]
    xs = [L(1), G(half(-1)), omega(1, 0, 2), gl_sum(half(1), 0, 2),
          a_l_chain(3, -1, 3, AlgebraMode.K),
          LieElement({L(2): LAMBDA, G(half(3)): F(1, 2)}, AlgebraMode.KHAT)]
    mods = [gamma(LAMBDA, B), gamma(F(1, 3), B), gamma(LAMBDA / (B + 1), B)]
    cases = list(product(xs, huge, mods))
    for x, v, mod in cases:
        assert outcome(act, x, v, mod) == outcome(reference_act, x, v, mod), (mod, x, v)
    # the module axiom folds there too
    printed = SignConvention.PAPER_PRINTED
    axioms = list(product([(L(1), G(half(-1))), (G(half(1)), G(half(-1)))],
                          [BasisKey(2 ** 70, eps) for eps in (0, 1)],
                          [gamma(LAMBDA, B), gamma(LAMBDA, B, convention=printed),
                           gamma(F(1, 3), B)]))
    residuals = set()
    for (x, y), key, mod in axioms:
        want = outcome(partial(reference_axiom, x), y, key, mod)
        assert outcome(partial(module_axiom_residual, x), y, key, mod) == want, (mod, x, y, key)
        residuals.add(bool(want))
    assert residuals == {True, False}  # the printed signs fail the odd-odd axiom
    assert len(redos) == len(cases) + len(axioms) and min(k for k, _ in redos) > 64
    redos.clear()
    monkeypatch.setattr(modules, "_RADIX", (8, 2))
    rng = random.Random("nscheck-fold-radix")
    small = [gamma(LAMBDA, B), gamma(LAMBDA * LAMBDA - B, B), gamma_plus(B)]
    xs, vs = elements(rng, AlgebraMode.KPLUS), vectors(rng)
    for mod in small:
        assert mod._table.radix == (8, 2)
        for x, v in product(xs, vs):
            assert outcome(act, x, v, mod) == outcome(reference_act, x, v, mod), (mod, x, v)
    assert {m > 2 for _, m in redos} == {True, False}  # a degree redo and a height-only one


def test_the_unit_element_rejects_an_inadmissible_key():
    # gamma'(0,0) projects its key t^0 away: every element rejects it, the
    # unit too, whose chain consults no entry
    mod, v = gamma_prime(0, 0), ModuleVector.basis(BasisKey(0, 0))
    for x in (AElement.monomial(0), L(0), AElement.monomial(1)):
        with pytest.raises(ModuleError, match="key t\\^0 not admissible for gamma'\\(0,0\\)"):
            act(x, v, mod)
    assert act(AElement.monomial(0), ModuleVector.basis(BasisKey(1, 0)), mod).terms == {
        BasisKey(1, 0): 1}


def test_unscaled_jet_term_folds_like_the_reference(monkeypatch):
    """The unscaled mutant of ``TestJetCertificate`` returns mu, not D mu,
    so D c is no integer; the fold reads the n that the jet formula made
    and agrees with the reference everywhere."""
    def unscaled(self, gen, mono):
        return jet_coefficient(gen, mono, self.lam.numeric_value(), self.b.numeric_value())

    monkeypatch.setattr(GammaModule, "jet_term", unscaled)
    mod, xs = gamma(F(1, 3), F(1, 4)), (L(1), L(-2), G(half(1)), G(half(-3)))
    cases = [(x, ModuleVector.basis(BasisKey(k, eps)))
             for x in xs for k in range(-3, 4) for eps in (0, 1)]
    assert len(cases) == 56
    assert [(x, v) for x, v in cases
            if outcome(act, x, v, mod) != outcome(reference_act, x, v, mod)] == []


@pytest.mark.parametrize("func", [act, modules._fold, modules._ActionTable.__init__,
                                  modules._ActionTable.fill, modules._ActionTable.value],
                         ids=lambda f: f.__qualname__)
def test_every_fold_exit_runs(func):
    # a new exit of the fold needs a case that reaches it
    def run():
        rng = random.Random("nscheck-fold-exits")
        for mod in (gamma(F(1, 3), F(1, 4)), gamma(LAMBDA, B), gamma_plus(B)):
            for x in (L(1), omega(1, 0, 2), LieElement({L(2): LAMBDA}, AlgebraMode.KHAT)):
                act(x, ModuleVector.basis(BasisKey(1, 0)), mod)
                act(x, ModuleVector.basis(BasisKey(2 ** 70, 0)), mod)
            with pytest.raises(ModuleError, match="cannot act"):
                act("x", ModuleVector.basis(BasisKey(0, 0)), mod)
        for x, v in product(elements(rng, AlgebraMode.KHAT)[:4], vectors(rng)):
            act(x, v, gamma(LAMBDA, B))
        cut, below = gamma_plus(B), ModuleVector.basis(BasisKey(-1, 0))
        for x, v, match in [(AElement.monomial(0), below, "not admissible"),
                            (L(1), below, "not admissible"),
                            (L(-2), ModuleVector.basis(BasisKey(0, 0)), "not admissible on"),
                            (AElement.monomial(-1), ModuleVector.basis(BasisKey(0, 0)),
                             "does not act")]:
            with pytest.raises(ModuleError, match=match):
                act(x, v, cut)

    assert sorted(exit_lines(func) - lines_run(func, run)) == []
