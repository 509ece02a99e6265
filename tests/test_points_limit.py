"""The flat limit of a point set by one elimination, against the pipeline it
replaced.

``tensors.degeneration_from_points`` reads the limit's standard monomials
and normal forms off one RREF of the evaluation matrix of the monomials of
degree <= 3 (Möller–Buchberger).  The reference below is the pipeline it
replaced, kept verbatim: the kernel of that matrix as polynomials, their
initial ideal by shifted rows, its Hilbert function, and the quotient by
Buchberger and normal forms.  Both must give the same ``serialize()`` bytes,
or the same exception type and message, over QQ, F_2, F_3, F_7 and F_101:

- q + 2 points for q = 1..6, in q + 1 variables or fewer or more;
- points on the hyperplane y_{q+1} = 1, on another affine hyperplane and
  on none, with coordinates that are ints or Fractions (over F_p a
  denominator may vanish);
- duplicated points, collinear points (``BoundTooSmall`` when there are
  four of them), points with no coordinates, and no points at all.

E is reduced on its degree <= 2 columns alone when they reach full row
rank q + 2 in more than q + 2 columns, and whole otherwise; both paths are
pinned by the widths of the eliminations, among them the square block of
one variable and three points, which must take the whole matrix.
"""

import json
import random
from contextlib import ExitStack
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, linalg, poly, tensors
from gorlab.errors import BoundTooSmall, DimensionMismatch, GenericityFailure, ZeroInput
from gorlab.frobenius import gorenstein_test
from gorlab.poly import (
    MultiPoly,
    lowest_degree_initial_ideal,
    monomials_of_degree,
    quotient_algebra,
)
from gorlab.tensors import ReducedDegeneration, degeneration_from_points, reduced_degeneration

from helpers import graded_hilbert

FIELDS = [QQ, GF(2), GF(3), GF(7), GF(101)]


def ref_degeneration_from_points(field, points):
    """Flat limit at the origin of the rescaled point set, via the graded
    initial-ideal computation; succeeds only with Hilbert function (1, q, 1)
    and a Gorenstein limit."""
    points = [tuple(field.scalar(x) for x in p) for p in points]
    q = len(points) - 2
    nvars = len(points[0])
    names = tuple(f"y{i + 1}" for i in range(nvars))
    monos = []
    for s in range(4):
        monos.extend(monomials_of_degree(nvars, s))
    rows = []
    for p in points:
        row = []
        for m in monos:
            v = field.one
            for x, e in zip(p, m):
                for _ in range(e):
                    v = v * x
            row.append(v)
        rows.append(tuple(row))
    coeff_vectors = linalg.kernel_basis(field, rows, len(monos))
    gens = [
        MultiPoly(field, names, {m: c for m, c in zip(monos, vec) if c})
        for vec in coeff_vectors
    ]
    forms = lowest_degree_initial_ideal(gens, 3)
    hilbert = graded_hilbert(forms, nvars, 3)
    expected = [1, q, 1, 0]
    if hilbert != expected:
        raise GenericityFailure(
            f"limit Hilbert function {hilbert[:3]} != (1, {q}, 1); resample"
        )
    limit = quotient_algebra(forms)
    gor = gorenstein_test(limit, seed=0)
    if gor.status != "oriented":
        raise GenericityFailure("limit algebra failed the Gorenstein test")
    return ReducedDegeneration(limit, hilbert[:3], tuple(points), gor)


def result(fn, field, points):
    """The report's JSON bytes, or the exception's type and message."""
    try:
        rep = fn(field, points)
    except Exception as ex:  # noqa: BLE001 - any difference is a failure
        return type(ex), str(ex)
    return json.dumps(rep.serialize(), sort_keys=True)


def coordinate(rng, field):
    if rng.random() < 0.1:
        return Fraction(rng.randint(-9, 9), rng.choice([2, 3, 5]))
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return rng.randint(-6, 6)


def point_set(field, q, nvars, kind, seed):
    rng = random.Random(seed)
    on = kind not in ("off", "hyperplane")
    free = nvars - 1 if on and nvars else nvars

    def point():
        return tuple(coordinate(rng, field) for _ in range(free)) + ((1,) if on and nvars else ())

    if kind == "collinear":
        a, b = point(), point()
        return [tuple(x + t * y for x, y in zip(a, b)) for t in range(q + 2)]
    points = [point() for _ in range(q + 2)]
    if kind == "hyperplane" and nvars:
        # on a·y = 1 with a = (1, ..., 1, c), c != 0: solve for the last coordinate
        c = rng.choice([2, 3, 5])
        points = [pt[:-1] + (Fraction(1 - sum(pt[:-1]), c),) for pt in points]
    if kind == "duplicate":
        points[rng.randrange(q + 2)] = points[0]
    return points


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(1, 6),
    st.sampled_from([0, 0, 0, 1, -1, -2]),
    st.sampled_from(["on", "on", "on", "hyperplane", "hyperplane", "off", "duplicate", "collinear"]),
    st.integers(0, 2**32),
)
def test_matches_the_initial_ideal_pipeline(field, q, shift, kind, seed):
    nvars = max(q + 1 + shift, 0)
    points = point_set(field, q, nvars, kind, seed)
    assert result(degeneration_from_points, field, points) == result(
        ref_degeneration_from_points, field, points
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("points", [
    [(5,)],                                     # one point: q = -1
    [()],
    [(), (), ()],
    [(0,), (1,), (2,), (3,)],                   # four points on a line: no kernel in degree <= 3
    [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1)],  # collinear in the hyperplane
    [(0, 1), (0, 1), (0, 1)],
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
    [(0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1)],  # three collinear: (1, 2, 1), not Gorenstein
])
def test_edge_cases_match(field, points):
    assert result(degeneration_from_points, field, points) == result(
        ref_degeneration_from_points, field, points
    )


def test_edge_case_errors():
    assert result(degeneration_from_points, QQ, []) == (ZeroInput, "no points")
    assert result(degeneration_from_points, GF(7), []) == (ZeroInput, "no points")
    assert result(degeneration_from_points, QQ, [(), ()])[0] is ZeroInput
    assert result(degeneration_from_points, QQ, [(0,), (1,), (2,), (3,)]) == (ZeroInput, "no generators")
    collinear = [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1)]
    assert result(degeneration_from_points, QQ, collinear) == (
        BoundTooSmall, "graded quotient still has dimension in degree 3; raise the bound"
    )
    assert result(degeneration_from_points, QQ, [(0, 1), (0, 1), (1, 1)]) == (
        GenericityFailure, "limit Hilbert function [1, 1, 0] != (1, 1, 1); resample"
    )
    assert result(degeneration_from_points, QQ, [(0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1)]) == (
        GenericityFailure, "limit algebra failed the Gorenstein test"
    )


def test_ragged_points_are_rejected():
    with pytest.raises(DimensionMismatch):
        degeneration_from_points(QQ, [(0, 1), (1, 1), (2,)])
    with pytest.raises(DimensionMismatch):
        degeneration_from_points(GF(7), [(0, 1), (1, 1, 1), (2, 1)])


def refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refused


def test_one_elimination_and_no_groebner_pipeline():
    calls = count()
    raw_rref = linalg.raw_rref
    seen = []

    def counting(*args, **kwargs):
        next(calls)
        return raw_rref(*args, **kwargs)

    def gorenstein(A, seed):
        seen.append(next(calls))  # raw_rref calls before the Gorenstein test
        return gorenstein_test(A, seed=seed)

    patches = [
        mock.patch.object(linalg, "raw_rref", counting),
        mock.patch.object(tensors, "gorenstein_test", gorenstein),
        mock.patch.object(linalg, "kernel_basis", refuse("kernel_basis")),
    ] + [
        mock.patch.object(module, name, refuse(name))
        for module in (poly, tensors)
        for name in ("lowest_degree_initial_ideal", "graded_hilbert", "groebner_basis",
                     "standard_monomials", "quotient_algebra")
        if hasattr(module, name)
    ]
    with ExitStack() as stack:
        for p in patches:
            stack.enter_context(p)
        rep = reduced_degeneration(3, 0)
    assert rep.hilbert == [1, 3, 1]
    assert seen == [1]


def widths_reduced(field, points):
    """The result, and the column count of each elimination of E, that is,
    of those run before the Gorenstein test."""
    widths, raw_rref, testing = [], linalg.raw_rref, []

    def spying(rows, *args, **kwargs):
        if not testing:
            widths.append(len(rows[0]))
        return raw_rref(rows, *args, **kwargs)

    def gorenstein(A, seed):
        testing.append(True)
        return gorenstein_test(A, seed=seed)

    with mock.patch.object(linalg, "raw_rref", spying), \
            mock.patch.object(tensors, "gorenstein_test", gorenstein):
        got = result(degeneration_from_points, field, points)
    return got, widths


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
@pytest.mark.parametrize("points,widths", [
    # full row rank q + 2 on the degree <= 2 block (1 + 4 + 10 columns): E is
    # reduced there alone
    ([(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 2, 3, 1)], [15]),
    ([(0, 0), (1, 0), (0, 1), (1, 1)], [6]),
    # one variable and three points: the degree <= 2 block is square (3 x 3),
    # so its full rank says nothing of degree 3, and E is reduced whole
    ([(1,), (2,), (3,)], [3, 4]),
    ([(0,), (1,), (2,), (3,)], [3, 4]),   # rank 3 < 4 points
    ([(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1)], [10, 20]),  # collinear: rank 3 < 4
    ([(0, 1), (0, 1), (1, 1)], [6, 10]),  # a point twice: rank 2 < 3
])
def test_the_degree_two_block_or_the_whole_matrix(field, points, widths):
    """Both paths of degeneration_from_points, each against the reference
    pipeline (the same report bytes, or the same exception and message)."""
    got, seen = widths_reduced(field, points)
    assert seen == widths
    assert got == result(ref_degeneration_from_points, field, points)


def test_the_square_block_keeps_its_limit():
    """Three points on a line in one variable have the limit k[y]/(y^3),
    Hilbert function (1, 1, 1): the draft that took the square degree <= 2
    block at its word raised ZeroInput here."""
    rep = degeneration_from_points(QQ, [(1,), (2,), (3,)])
    assert rep.hilbert == [1, 1, 1]
    assert rep.limit.labels == ("1", "y1", "y1^2")
