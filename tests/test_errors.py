"""Library errors, each pinned by its exact type and message.

One call per ``raise`` statement of the library that the other tests never
make fire: a misused constructor, parser or entry point must fail with the
error class of its layer and a message that names what was wrong.
"""

from fractions import Fraction

import pytest

from nscheck.algebra import (
    AElement,
    AlgebraError,
    AlgebraMode,
    AMode,
    AMonomial,
    G,
    Gen,
    HalfInt,
    L,
    compatibility_basis,
    half,
)
from nscheck.analysis import centralizer_reports, psi_table_reports, reconstruction_reports
from nscheck.enveloping import (
    SmashElement,
    TElementLabel,
    omega,
    smash_bracket,
    verify_reconstruction,
)
from nscheck.modules import (
    BasisKey,
    ModuleError,
    ModuleVector,
    SignConvention,
    act,
    gamma,
)
from nscheck.scalars import LAMBDA, ParamPoly, ScalarError, _divexact

K, KPLUS, KHAT = AlgebraMode.K, AlgebraMode.KPLUS, AlgebraMode.KHAT
ONE = AMonomial(0, 0)


def pbw(gens, mode, a=ONE):
    """The smash element a (x) gens, built as it stands."""
    return SmashElement({(a, gens): 1}, mode)


# (id, call, error type, message)
ERRORS = [
    # algebra
    ("half-int-as-int", lambda: HalfInt(1).as_int(), AlgebraError, "1/2 is not an integer"),
    ("algebra-mode", lambda: AlgebraMode.parse("kk"), AlgebraError,
     "unknown algebra mode 'kk'"),
    ("gen-L-index", lambda: Gen("L", HalfInt(1)), AlgebraError,
     "L index must be an integer, got 1/2"),
    ("gen-G-index", lambda: Gen("G", HalfInt(2)), AlgebraError,
     "G index must be strictly half-integral, got 1"),
    ("gen-kind", lambda: Gen("X"), AlgebraError, "unknown generator kind 'X'"),
    ("xi-exponent", lambda: AMonomial(0, 2), AlgebraError, "xi exponent must be 0 or 1"),
    ("a-element-mode", lambda: AElement({AMonomial(-1, 0): 1}, AMode.APLUS), AlgebraError,
     "monomial t^-1 not admissible in mode A+"),
    ("compat-center", lambda: compatibility_basis(Gen("C"), ONE, L(1), KHAT), AlgebraError,
     "the central element does not act on A"),
    # enveloping
    ("pbw-not-admitted", lambda: pbw((L(-2),), KPLUS), AlgebraError,
     "generator L(-2) not admissible in mode kplus"),
    ("pbw-order", lambda: pbw((L(1), L(0)), K), AlgebraError, "PBW monomial out of order"),
    ("pbw-repeated-odd", lambda: pbw((G(half(1)), G(half(1))), K), AlgebraError,
     "repeated odd generator in PBW monomial"),
    ("a-part-not-admitted", lambda: pbw((), KPLUS, AMonomial(-1, 0)), AlgebraError,
     "A-monomial t^-1 not admissible in mode kplus"),
    ("smash-bracket-inhomogeneous",
     lambda: smash_bracket(pbw((L(0),), K) + pbw((G(half(1)),), K), pbw((L(1),), K)),
     AlgebraError, "smash_bracket needs parity-homogeneous inputs"),
    ("omega-order", lambda: omega(0, 0, -1), AlgebraError, "omega order m must be non-negative"),
    ("primed-kind", lambda: TElementLabel("X", 0), AlgebraError, "unknown primed kind 'X'"),
    ("reconstruction-n", lambda: verify_reconstruction(-1), AlgebraError,
     "reconstruction defined for n >= 0"),
    # modules
    ("sign-convention", lambda: SignConvention.parse("x"), ModuleError,
     "unknown sign convention 'x'"),
    ("act-type",
     lambda: act("x", ModuleVector.basis(BasisKey(0, 0)), gamma(Fraction(1, 3), Fraction(1, 4))),
     ModuleError, "cannot act with object of type str"),
    # analysis
    ("reconstruction-range", lambda: reconstruction_reports(-1), AlgebraError,
     "max_n must be at least 0"),
    ("centralizer-range-n", lambda: centralizer_reports(-2, 0), AlgebraError,
     "max_n and max_k must be at least 0, got -2 and 0"),
    ("centralizer-range-k", lambda: centralizer_reports(1, -1), AlgebraError,
     "max_n and max_k must be at least 0, got 1 and -1"),
    ("psi-table-range", lambda: psi_table_reports(-1), AlgebraError,
     "max_index must be at least 0"),
    # scalars
    ("divexact-zero", lambda: _divexact({(0, 0): 1}, {}, "Q"), ScalarError,
     "division by zero polynomial"),
    ("param-name", lambda: ParamPoly.variable("x"), ValueError,
     "unknown parameter 'x'; only l and b exist"),
    ("numeric-value", lambda: LAMBDA.numeric_value(), ScalarError, "l is not numeric"),
]


@pytest.mark.parametrize("call, error, message", [e[1:] for e in ERRORS],
                         ids=[e[0] for e in ERRORS])
def test_misuse_raises_its_error(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
