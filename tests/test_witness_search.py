"""The shared witness search against the two searches it replaced.

``gorenstein_test`` and ``one_generic`` both look for a point at which a
pencil of matrices is nonsingular, through ``frobenius._nonsingular_point``.
The references below are the two searches as they stood before, each with
its own boxed sampling loop and symbolic fallback.  On monomial quotients,
products of copies of F_p, base-changed algebras, CW_q, random sparse
tensors, the zero tensor and a pencil whose determinant vanishes on all of
F_2^2 over QQ, F_2, F_3 and F_7, with 0, 1, 3 or 64
trials and the symbolic expansion off or on, the serialized results must be
equal, and the search must never look for a nonvanishing point of a zero
determinant.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from corpus import random_invertible
from gorlab import GF, QQ, linalg, quotient_algebra
from gorlab import frobenius
from gorlab.algebra import FiniteAlgebra, Subspace, base_change, direct_product
from gorlab.errors import ShapeMismatch
from gorlab.forms import is_nondegenerate
from gorlab.frobenius import (
    GorensteinResult,
    _find_nonvanishing,
    _nilradical_and_socle,
    b_phi,
    gorenstein_test,
)
from gorlab.poly import MultiPoly, det_multipoly
from gorlab.tensors import OneGenericResult, Tensor3, cw_tensor, one_generic, structure_tensor

FIELDS = (QQ, GF(2), GF(3), GF(7))


def ref_gorenstein_test(A, seed=0, trials=64, symbolic_max_dim=8):
    f = A.field
    d = A.dim
    J, soc = _nilradical_and_socle(A)
    if len(soc) != d - len(J):
        return GorensteinResult(
            "not_gorenstein", None, None, 0, Subspace(d, J, f), Subspace(d, soc, f)
        )
    rng = random.Random(seed)
    for trial in range(trials):
        if f.characteristic == 0:
            phi = tuple(f.scalar(rng.randint(-9, 9)) for _ in range(d))
        else:
            phi = tuple(f.scalar(rng.randrange(f.characteristic)) for _ in range(d))
        if is_nondegenerate(b_phi(A, phi)):
            return GorensteinResult("oriented", phi, None, trial + 1)
    if d <= symbolic_max_dim:
        variables = tuple(f"p{i}" for i in range(d))
        matrix = [
            [
                MultiPoly(
                    f,
                    variables,
                    {
                        tuple(1 if v == k else 0 for v in range(d)): A.c[i][j][k]
                        for k in range(d)
                        if A.c[i][j][k]
                    },
                )
                for j in range(d)
            ]
            for i in range(d)
        ]
        Dpoly = det_multipoly(matrix, f, variables)
        point = _find_nonvanishing(Dpoly, f)
        if point is not None:
            return GorensteinResult("oriented", point, Dpoly, trials)
        return GorensteinResult("gorenstein", None, Dpoly, trials)
    return GorensteinResult("gorenstein", None, None, trials)


def ref_one_generic(T, seed=0, trials=64, symbolic_max_dim=8):
    d1, d2, d3 = T.dims
    if d2 != d3:
        raise ShapeMismatch("slices are not square")
    f = T.field
    rng = random.Random(seed)
    for trial in range(trials):
        if f.characteristic == 0:
            a = tuple(f.scalar(rng.randint(-9, 9)) for _ in range(d1))
        else:
            a = tuple(f.scalar(rng.randrange(f.characteristic)) for _ in range(d1))
        if linalg.det(f, T.slice_first(a)):
            return OneGenericResult("witness", a, None, trial + 1)
    if d1 <= symbolic_max_dim:
        variables = tuple(f"a{i}" for i in range(d1))
        matrix = [
            [
                MultiPoly(
                    f,
                    variables,
                    {
                        tuple(1 if v == i else 0 for v in range(d1)): T.entries[i][j][k]
                        for i in range(d1)
                        if T.entries[i][j][k]
                    },
                )
                for k in range(d3)
            ]
            for j in range(d2)
        ]
        Dpoly = det_multipoly(matrix, f, variables)
        if not Dpoly:
            return OneGenericResult("no", None, Dpoly, trials)
        point = _find_nonvanishing(Dpoly, f)
        if point is not None:
            return OneGenericResult("witness", point, Dpoly, trials)
    return OneGenericResult("inconclusive", None, None, trials)


def outcome(fn, *args, **kwargs):
    """The serialized result, or the exception's type and message."""
    try:
        return fn(*args, **kwargs).serialize()
    except Exception as ex:  # noqa: BLE001 - any difference is a failure
        return type(ex), str(ex)


def nonzero_only(Dpoly, field):
    assert Dpoly, "a nonvanishing point was sought on a zero determinant"
    return _find_nonvanishing(Dpoly, field)


# -- inputs ---------------------------------------------------------------------


def value(draw, f):
    if f.characteristic == 0:
        return draw(st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))))
    return draw(st.integers(1, f.characteristic - 1))


def monomial_quotient(draw, f):
    """k[x_1..x_n]/(x_i^(e_i), a few squarefree monomials), dimension <= 9."""
    n = draw(st.sampled_from((2, 3, 1)))
    tops = {1: (4, 6, 1), 2: (2, 3, 1), 3: (2, 1)}[n]
    names = tuple(f"x{i}" for i in range(n))
    monos = [tuple(draw(st.sampled_from(tops)) if v == i else 0 for v in range(n))
             for i in range(n)]
    for _ in range(draw(st.sampled_from((1, 0, 2)))):
        monos.append(tuple(draw(st.integers(0, 1)) for _ in range(n)))
    return quotient_algebra([MultiPoly(f, names, {m: 1}) for m in monos if any(m)])


def field_power(draw, f):
    """F_p x ... x F_p with up to 9 factors: over F_2 a witness is rare."""
    point = FiniteAlgebra(f, ["1"], [[[1]]], unit=[1])
    A = point
    for _ in range(draw(st.sampled_from((2, 8, 4, 0, 1, 5)))):
        A = direct_product(A, point)
    return A


@st.composite
def algebras(draw, f):
    A = draw(st.sampled_from((monomial_quotient, field_power)))(draw, f)
    # base change makes the pencil dense: keep its symbolic expansion small
    if 0 < A.dim <= 6 and draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**16)))
        A = base_change(A, random_invertible(rng, f, A.dim))
    return A


@st.composite
def tensors(draw, f):
    kind = draw(st.sampled_from(("cw", "sparse", "zero", "algebra", "pencil")))
    if kind == "cw":
        return cw_tensor(f, draw(st.integers(1, 4)))
    if kind == "pencil":
        # diag(a0, a1, a0 + a1): its determinant vanishes on every point of F_2^2
        support = [(0, 0, 0, 1), (1, 1, 1, 1), (0, 2, 2, 1), (1, 2, 2, 1)]
        return Tensor3.from_support(f, (2, 3, 3), support)
    if kind == "algebra":
        return structure_tensor(draw(algebras(f)))
    # a few non-square slices: both sides raise ShapeMismatch
    d1 = draw(st.integers(0, 4))
    d2 = draw(st.integers(0, 4)) if d1 else 0
    d3 = d2 + 1 if d2 and not draw(st.integers(0, 9)) else d2
    entries = []
    if kind == "sparse" and d2:
        for _ in range(draw(st.integers(0, 2 * d2))):
            i, j, k = (draw(st.integers(0, d - 1)) for d in (d1, d2, d3))
            entries.append((i, j, k, value(draw, f)))
    return Tensor3.from_support(f, (d1, d2, d3), entries)


searches = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 999),
        "trials": st.sampled_from((0, 1, 3, 64)),
        "symbolic_max_dim": st.sampled_from((0, 8)),
    }
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), searches)
def test_gorenstein_search_matches_reference(data, kwargs):
    A = data.draw(algebras(data.draw(st.sampled_from(FIELDS))))
    with mock.patch.object(frobenius, "_find_nonvanishing", nonzero_only):
        got = outcome(gorenstein_test, A, **kwargs)
    assert got == outcome(ref_gorenstein_test, A, **kwargs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), searches)
def test_one_generic_search_matches_reference(data, kwargs):
    T = data.draw(tensors(data.draw(st.sampled_from(FIELDS))))
    with mock.patch.object(frobenius, "_find_nonvanishing", nonzero_only):
        got = outcome(one_generic, T, **kwargs)
    assert got == outcome(ref_one_generic, T, **kwargs)


def test_qq_trials_on_the_scaled_pencil_match_the_fraction_reference():
    """Over QQ the trials run on the L-scaled integer pencil, the reference on
    Fractions.  QQ^6 on the idempotents scaled by 1/2, -3, 2/5, ... : its
    table has fractional entries (L > 1), and a functional orients it when
    it vanishes on none of them, so a random one misses often and some
    searches take several trials.  Every witness and trial count must be
    the reference's."""
    point = FiniteAlgebra(QQ, ["1"], [[[1]]], unit=[1])
    A = point
    for _ in range(5):
        A = direct_product(A, point)
    scales = [Fraction(1, 2), -3, Fraction(2, 5), 7, Fraction(-5, 3), 1]
    A = base_change(A, [[s if i == j else 0 for j in range(6)] for i, s in enumerate(scales)])
    assert A.raw[1] > 1
    searches = [{"seed": s, "trials": t, "symbolic_max_dim": 0}
                for s in range(30) for t in (1, 64)]
    got = [outcome(gorenstein_test, A, **kw) for kw in searches]
    assert got == [outcome(ref_gorenstein_test, A, **kw) for kw in searches]
    assert {r["status"] for r in got} == {"oriented", "gorenstein"}
    assert max(r["trials"] for r in got) > 1
