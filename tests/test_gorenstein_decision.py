"""The Gorenstein decision against the symbolic determinant it replaced.

``gorenstein_test`` decides by the nilradical J and the socle Ann(J).  The
reference below is the decision it replaced: seeded sampling of functionals,
then the zero test of the symbolic determinant det(B_phi), exact for
dim <= 8.  On algebras of dimension <= 7 over QQ, F_2, F_3, F_5 and F_7 --
monomial quotients, univariate quotients (products of residue-field
extensions and of local factors of any length), complete intersections,
deformations of (x, y)^2, a quadratic residue-field extension with
nilpotents on top, and k[x]/(x^p), all scrambled by a change of basis or
multiplied together -- the verdicts must agree, a witness must orient, and
every not_gorenstein certificate must pass the independent checks of
``certificates.py``.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from certificates import assert_not_gorenstein_certificate
from corpus import random_invertible
from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import Subspace, base_change, direct_product
from gorlab.forms import is_nondegenerate
from gorlab.frobenius import _find_nonvanishing, b_phi, gorenstein_test
from gorlab.poly import MultiPoly, det_multipoly

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))

# an irreducible quadratic x^2 + a x + b over each field, as (a, b)
QUADRATIC = {0: (0, 1), 2: (1, 1), 3: (0, 1), 5: (0, 2), 7: (0, 1)}

MAX_DIM = 7


def reference_is_gorenstein(A, seed=0, trials=64):
    """The decision before the nilradical criterion: sampling, then the
    symbolic determinant, whose zero test is exact."""
    f = A.field
    d = A.dim
    rng = random.Random(seed)
    for _ in range(trials):
        if f.characteristic == 0:
            phi = tuple(f.scalar(rng.randint(-9, 9)) for _ in range(d))
        else:
            phi = tuple(f.scalar(rng.randrange(f.characteristic)) for _ in range(d))
        if is_nondegenerate(b_phi(A, phi)):
            return True
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
    if Dpoly and f.characteristic == 0:
        assert _find_nonvanishing(Dpoly, f) is not None
    return bool(Dpoly)


def check_decision(A, seed=0):
    rep = gorenstein_test(A, seed=seed)
    assert (rep.status != "not_gorenstein") == reference_is_gorenstein(A), rep.status
    if rep.status == "oriented":
        assert is_nondegenerate(b_phi(A, rep.witness))
    elif rep.status == "gorenstein":
        assert rep.witness is None
    else:
        assert_not_gorenstein_certificate(A, rep)
    return rep


# -- building blocks, each of dimension <= cap --------------------------------


def monomial_block(draw, f, cap):
    """k[x_1..x_n]/(monomials), n = 2 or 3, with a random staircase of size
    <= cap."""
    n = draw(st.integers(2, 3))
    size = draw(st.integers(min(3, cap), cap))
    stairs = [(0,) * n]
    while len(stairs) < size:
        addable = sorted(
            {
                m
                for s in stairs
                for i in range(n)
                for m in [s[:i] + (s[i] + 1,) + s[i + 1 :]]
                if m not in stairs
                and all(m[:k] + (m[k] - 1,) + m[k + 1 :] in stairs for k in range(n) if m[k])
            }
        )
        stairs.append(draw(st.sampled_from(addable)))
    corners = {
        s[:i] + (s[i] + 1,) + s[i + 1 :] for s in stairs for i in range(n)
    } - set(stairs)
    names = tuple(f"x{i}" for i in range(n))
    gens = [
        MultiPoly(f, names, {m: 1})
        for m in sorted(corners)
        if all(m[:k] + (m[k] - 1,) + m[k + 1 :] in stairs for k in range(n) if m[k])
    ]
    return quotient_algebra(gens)


def coefficient(draw, f):
    return draw(st.integers(-3, 3) if f.characteristic == 0 else st.integers(0, f.characteristic - 1))


def univariate_block(draw, f, cap):
    """k[x]/(g) for a random monic g: a product of residue-field extensions
    of k carrying nilpotents of any length."""
    x, = poly_ring(f, "x")
    n = draw(st.integers(1, cap))
    g = x**n
    for k in range(n):
        g = g + coefficient(draw, f) * x**k
    return quotient_algebra([g])


def complete_intersection_block(draw, f, cap):
    """k[x, y]/(x^a + lower, y^b + lower): Gorenstein, often not local."""
    x, y = poly_ring(f, "x", "y")
    a = draw(st.integers(1, cap))
    b = draw(st.integers(1, cap // a))
    rels = []
    for lead, deg in ((x**a, a), (y**b, b)):
        r = lead
        for i in range(deg):
            for j in range(deg - i):
                r = r + coefficient(draw, f) * x**i * y**j
        rels.append(r)
    return quotient_algebra(rels)


def deformed_square_block(draw, f, cap):
    """k[x, y]/(x^2, xy, y^2 plus linear terms): dimension 1 to 3, the origin
    one of its points."""
    x, y = poly_ring(f, "x", "y")
    return quotient_algebra(
        [lead + coefficient(draw, f) * x + coefficient(draw, f) * y for lead in (x**2, x * y, y**2)]
    )


def extension_block(draw, f, cap):
    """A quadratic residue-field extension K of k, with nilpotents on top:
    K, K[y]/y^2 (Gorenstein) or K[y, z]/(y, z)^2 (socle of K-dimension 2)."""
    x, y, z = poly_ring(f, "x", "y", "z")
    a, b = QUADRATIC[f.characteristic]
    q = x**2 + a * x + b
    options = [(2, [q, y, z]), (4, [q**2, y, z]), (4, [q, y**2, z]), (6, [q, y**2, y * z, z**2])]
    return quotient_algebra(draw(st.sampled_from([g for d, g in options if d <= max(cap, 2)])))


def frobenius_length_block(draw, f, cap):
    """k[x]/(x^p): a local factor whose length p vanishes in k."""
    x, = poly_ring(f, "x")
    return quotient_algebra([x ** min(f.characteristic or 2, cap)])


# monomial quotients twice: most of the non-Gorenstein cases come from them
BLOCKS = (
    monomial_block,
    monomial_block,
    univariate_block,
    complete_intersection_block,
    deformed_square_block,
    extension_block,
    frobenius_length_block,
)


@st.composite
def algebras(draw):
    f = draw(st.sampled_from(FIELDS))
    A = draw(st.sampled_from(BLOCKS))(draw, f, MAX_DIM)
    if A.dim < MAX_DIM and draw(st.booleans()):
        B = draw(st.sampled_from(BLOCKS))(draw, f, MAX_DIM - A.dim)
        if A.dim + B.dim <= MAX_DIM:
            A = direct_product(A, B)
    if A.dim and draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        A = base_change(A, random_invertible(random.Random(seed), f, A.dim))
    return A


@settings(derandomize=True, max_examples=250, deadline=None)
@given(algebras(), st.integers(0, 999))
def test_decision_matches_symbolic_determinant(A, seed):
    assert A.dim <= MAX_DIM
    check_decision(A, seed)


def _quotient(f, build):
    return quotient_algebra(build(*poly_ring(f, "x", "y", "z")))


# (name, field, relations in x, y, z, expected verdict)
CASES = [
    ("F2[x]:x^2", GF(2), lambda x, y, z: [x**2, y, z], True),
    ("F3[x]:x^3", GF(3), lambda x, y, z: [x**3, y, z], True),
    ("F2[x]:x^2+x+1", GF(2), lambda x, y, z: [x**2 + x + 1, y, z], True),
    ("F3[x]:(x^2+1)^2", GF(3), lambda x, y, z: [(x**2 + 1) ** 2, y, z], True),
    ("F5[x,y,z]:x^2+2,(y,z)^2", GF(5), lambda x, y, z: [x**2 + 2, y**2, y * z, z**2], False),
    # local lengths 4 and 3, divisible by p: the trace form vanishes on them
    ("F2[x,y,z]:(x,y,z)^2", GF(2), lambda x, y, z: [x**2, y**2, z**2, x * y, x * z, y * z], False),
    ("F3[x,y]:(x,y)^2", GF(3), lambda x, y, z: [x**2, x * y, y**2, z], False),
    # a nilpotent of index 3 > p = 2: x^2 = 0 alone misses x
    ("F2[x,y]:x^3,xy,y^2", GF(2), lambda x, y, z: [x**3, x * y, y**2, z], False),
    ("QQ[x,y]:(x,y)^2", QQ, lambda x, y, z: [x**2, x * y, y**2, z], False),
]


@pytest.mark.parametrize("name,field,build,gorenstein", CASES, ids=[c[0] for c in CASES])
def test_decision_on_named_cases(name, field, build, gorenstein):
    A = _quotient(field, build)
    for B in (A, direct_product(A, _quotient(field, lambda x, y, z: [x**2 - x, y, z]))):
        rep = check_decision(B)
        assert (rep.status != "not_gorenstein") == gorenstein


def test_not_gorenstein_reduces_each_basis_once():
    # J and Soc come from raw_kernel in RREF and are handed to the
    # certificate as they are: one raw_rref call each for the two kernels,
    # none to reduce them again (the trace form's rank mod a prime is a
    # raw_det)
    x, y = poly_ring(QQ, "x", "y")
    A = quotient_algebra([x**2, x * y, y**2])
    calls, real = [0], linalg.raw_rref

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    with mock.patch.object(linalg, "raw_rref", counting):
        rep = gorenstein_test(A)
    assert rep.status == "not_gorenstein" and calls[0] == 2
    for S in (rep.nilradical, rep.socle):
        assert S == Subspace(3, S.rows) and S.field == QQ
    assert_not_gorenstein_certificate(A, rep)
