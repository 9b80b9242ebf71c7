"""Independent oracles: the PBW normal-form engine against the module engine.

``smash_product`` rewrites products into normal form with no reference to
any module, and ``act`` evaluates an element on a module window with no
reference to normal forms.  Acting by a product must equal acting by its
factors in turn, so each engine checks the other.
"""

import random

import pytest

from nscheck.algebra import AlgebraMode, AMonomial, C, G, L, half
from nscheck.enveloping import SmashElement, smash_product
from nscheck.modules import BasisKey, ModuleVector, act, gamma, gamma_plus
from nscheck.scalars import B, LAMBDA, Scalar

PAIRS = 150

GENS = [L(n) for n in range(-2, 3)] + [G(half(d)) for d in (-3, -1, 1, 3)]

# smash algebra (test id and seed) -> (module, whose algebra mode names the
# smash algebra, admissible generators, A-exponent range or None for a unit
# A-part, key range)
SETUPS = {
    "U": (gamma(LAMBDA, B), GENS + [C], None, range(-3, 4)),
    "A-k": (gamma(LAMBDA, B, AlgebraMode.K), GENS, range(-2, 3), range(-3, 4)),
    "A+-k+": (gamma_plus(B), [g for g in GENS if g.index.doubled >= -2],
              range(0, 3), range(0, 4)),
}


def random_element(rng, mode, gens, a_range):
    out = SmashElement.zero(mode)
    for _ in range(rng.randint(1, 3)):
        picked = sorted(rng.sample(gens, rng.randint(0, 2)), key=lambda g: g.sort_key())
        a = AMonomial(0, 0) if a_range is None else AMonomial(rng.choice(a_range), rng.randint(0, 1))
        out = out + SmashElement.term(a, tuple(picked), mode, rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


def random_vector(rng, keys):
    return ModuleVector({BasisKey(rng.choice(keys), rng.randint(0, 1)): Scalar.of(rng.randint(1, 3))
                         for _ in range(rng.randint(1, 2))})


@pytest.mark.parametrize("label", list(SETUPS))
def test_product_acts_as_composition(label):
    mod, gens, a_range, keys = SETUPS[label]
    mode = mod.algebra_mode
    rng = random.Random(f"cross-engine/{label}")
    for _ in range(PAIRS):
        x = random_element(rng, mode, gens, a_range)
        y = random_element(rng, mode, gens, a_range)
        v = random_vector(rng, list(keys))
        assert act(smash_product(x, y), v, mod) == act(x, act(y, v, mod), mod), (
            x.render(), y.render(), v.render())
