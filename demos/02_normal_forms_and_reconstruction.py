"""Normal forms in the smash algebra and the primed generator family.

The interesting objects here: products reduced to the unique
A-part-left / sorted-PBW-right normal form, the quadratic annihilating
operators, and the degree-one elements L'(n), G'(n - 1/2) that centralize
the coefficient algebra and reassemble the plain generators.

Run with:  python demos/02_normal_forms_and_reconstruction.py
"""

from nscheck import (
    AlgebraMode,
    G,
    L,
    SmashElement,
    g_prime,
    half,
    l_prime,
    omega,
    smash_bracket,
    smash_product,
    verify_reconstruction,
)

AK = AlgebraMode.K


def show(label, value):
    print(f"  {label:<34} {value}")


print("Products reduce to normal form (A-part left, generators sorted):")
show("L(1) * L(-1) =", smash_product(SmashElement.gen(L(1), AK), SmashElement.gen(L(-1), AK)).render())
show("G(1/2) * G(1/2) =", smash_product(SmashElement.gen(G(half(1)), AK), SmashElement.gen(G(half(1)), AK)).render())
show("L(-1) * t =", smash_product(SmashElement.gen(L(-1), AK), SmashElement.amon(1, 0, AK)).render())

print()
print("Quadratic operators (these annihilate every bounded weight module):")
show("Omega_{1,0}^(1) =", omega(1, 0, 1).render())
show("Omega_{3,0}^(2) =", omega(3, 0, 2).render())

print()
print("The primed family:")
show("L'(0)  =", l_prime(0, AK).render())
show("L'(-1) =", l_prime(-1, AK).render())
show("G'(-1/2) =", g_prime(0, AK).render())

print()
print("They centralize the coefficient algebra and G(-1/2):")
gm = SmashElement.gen(G(half(-1)), AK)
show("[L'(3), t^-2] =", smash_bracket(l_prime(3, AK), SmashElement.amon(-2, 0, AK)).render())
show("[G(-1/2), L'(3)] =", smash_bracket(gm, l_prime(3, AK)).render())

print()
print("Their brackets mirror the non-negative half of the algebra:")
show("[L'(1), L'(2)] - 1*L'(3) =",
     (smash_bracket(l_prime(1, AK), l_prime(2, AK)) - l_prime(3, AK)).render())
show("[G'(1/2), G'(1/2)] - 2*L'(1) =",
     (smash_bracket(g_prime(1, AK), g_prime(1, AK)) - l_prime(1, AK).scale(2)).render())

print()
print("Reconstruction of the plain generators from the primed family")
print("(residuals of both identities, for n = 0..6):")
for n in range(7):
    res_l, res_g = verify_reconstruction(n)
    show(f"n = {n}:", f"L-residual {res_l.render()}   G-residual {res_g.render()}")

print()
print("Flipping the forced extension L'(-1) = -L(-1) breaks the n = 0 case:")
# the G identity at n = 0, G'(-1/2) - 2 xi L'(-1) = G(-1/2), with L'(-1) = +L(-1)
KP = AlgebraMode.KPLUS
xi_l = smash_product(SmashElement.amon(0, 1, KP), SmashElement.gen(L(-1), KP))
res_g = g_prime(0, KP) - xi_l.scale(2) - SmashElement.gen(G(half(-1)), KP)
show("G-residual with +L(-1):", res_g.render())
