"""orth_complement, surgery, metabolic_path and gro_member on one raw read of
the Gram matrix, against the boxed chains of products they replace.

The references below run every step on boxed matrices (mat_mul,
kernel_basis, invert, extend_to_basis, and complement_in's one-rref-per-row
scan).  On seeded forms over GF(2), GF(3), GF(101) and QQ -- metabolic
forms with their Lagrangians, isotropic and non-isotropic subspaces,
degenerate forms, subspaces of the wrong ambient dimension or field -- both
sides must return equal objects with equal value types, or raise the same
exception type with the same message.
"""

import random
from fractions import Fraction

import pytest

from gorlab import GF, QQ, linalg
from gorlab.algebra import Subspace
from gorlab.errors import (
    Degenerate,
    DimensionMismatch,
    FieldMismatch,
    NotIsotropic,
    NotLagrangian,
)
from gorlab.forms import (
    BilinearForm,
    FormFamily,
    MetabolicPath,
    SurgeryResult,
    gro_member,
    hyperbolic_form,
    is_nondegenerate,
    metabolic_path,
    orth_complement,
    surgery,
)
from gorlab.scalar import TPoly

from helpers import extend_to_basis
from test_linalg import greedy_complement

FIELDS = (GF(2), GF(3), GF(101), QQ)


# -- the boxed references ----------------------------------------------------


def ref_orth_complement(B, W):
    if W.ambient_dim != B.dim:
        raise DimensionMismatch("subspace has wrong ambient dimension")
    if not is_nondegenerate(B):
        raise Degenerate("form is degenerate")
    constraints = linalg.mat_mul(W.rows, B.gram)
    return Subspace(B.dim, linalg.kernel_basis(B.field, constraints, B.dim))


def ref_surgery(B, W):
    for u in W.rows:
        for v in W.rows:
            if B.apply(u, v):
                raise NotIsotropic("B does not vanish on W")
    perp = ref_orth_complement(B, W)
    section = greedy_complement(W.rows, perp.rows, B.dim)
    gram = linalg.mat_mul(linalg.mat_mul(section, B.gram), linalg.transpose(section))
    out = BilinearForm(B.field, gram)
    if not is_nondegenerate(out):
        raise Degenerate("surgery produced a degenerate form")
    return SurgeryResult(out, section)


def ref_metabolic_path(B, L):
    if L != ref_orth_complement(B, L):
        raise NotLagrangian("subspace is not equal to its own perpendicular")
    n = L.dim
    if B.dim != 2 * n:
        raise NotLagrangian("Lagrangian must have half the ambient dimension")
    f = B.field
    W0 = extend_to_basis(f, L.rows, B.dim)
    pairing = linalg.mat_mul(linalg.mat_mul(W0, B.gram), linalg.transpose(L.rows))
    W = linalg.mat_mul(linalg.invert(f, pairing), W0)
    adapted = linalg.mat(list(L.rows) + list(W))
    gram1 = linalg.mat_mul(linalg.mat_mul(adapted, B.gram), linalg.transpose(adapted))
    t, z, o = TPoly.t(f), TPoly(f), TPoly.const(f.one)
    fam = [[z] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        fam[i][n + i] = o
        fam[n + i][i] = o
        for j in range(n):
            fam[n + i][n + j] = TPoly.const(gram1[n + i][n + j]) * t
    return MetabolicPath(FormFamily(f, fam), adapted)


def ref_gro_member(W, n):
    if W.ambient_dim != 2 * n:
        raise DimensionMismatch(f"ambient of W must be 2n = {2 * n}")
    if not W.rows:
        return True
    f = W.rows[0][0].field
    H = hyperbolic_form(f, n)
    restricted = linalg.mat_mul(linalg.mat_mul(W.rows, H.gram), linalg.transpose(W.rows))
    return bool(linalg.det(f, restricted))


# -- comparison --------------------------------------------------------------


def _typed(x):
    """x with every Scalar replaced by (field, value, type of value)."""
    if isinstance(x, (tuple, list)):
        return tuple(_typed(y) for y in x)
    if isinstance(x, TPoly):
        return ("tpoly", _typed(x.coeffs))
    if isinstance(x, (BilinearForm, FormFamily)):
        return (type(x).__name__, x.field, _typed(x.gram))
    if isinstance(x, Subspace):
        return ("subspace", x.ambient_dim, x.field, _typed(x.rows))
    if isinstance(x, SurgeryResult):
        return ("surgery", _typed(x.form), _typed(x.section))
    if isinstance(x, MetabolicPath):
        return ("metabolic", _typed(x.family), _typed(x.adapted_basis))
    if hasattr(x, "field") and hasattr(x, "value"):
        return (x.field, x.value, type(x.value))
    return x


def _outcome(fn, *args):
    try:
        return "ok", _typed(fn(*args))
    except (Degenerate, DimensionMismatch, FieldMismatch, NotIsotropic, NotLagrangian) as ex:
        return type(ex).__name__, str(ex)


# -- seeded inputs -----------------------------------------------------------


def _draw(rng, field):
    p = field.characteristic
    return rng.randrange(p) if p else rng.choice([0, 0, 1, -1, 2, Fraction(1, 2), -3])


def _matrix(field, rows):
    return linalg.mat([[field.scalar(x) for x in row] for row in rows])


def _invertible(rng, field, d):
    while True:
        P = _matrix(field, [[_draw(rng, field) for _ in range(d)] for _ in range(d)])
        if linalg.det(field, P):
            return P


def _metabolic(rng, field, n):
    """P [[0, I], [I, S]] P^T and its Lagrangian, the first n rows of P^-1."""
    d = 2 * n
    g0 = [[0] * d for _ in range(d)]
    for i in range(n):
        g0[i][n + i] = g0[n + i][i] = 1
        for j in range(i, n):
            g0[n + i][n + j] = g0[n + j][n + i] = _draw(rng, field)
    P = _invertible(rng, field, d)
    gram = linalg.mat_mul(linalg.mat_mul(P, _matrix(field, g0)), linalg.transpose(P))
    return BilinearForm(field, gram), linalg.invert(field, P)[:n]


def _symmetric(rng, field, d, rank):
    """A symmetric form of the given rank, moved by a random change of basis."""
    g0 = [[0] * d for _ in range(d)]
    for i in range(rank):
        g0[i][i] = 1 if field.characteristic == 2 else rng.choice([1, 2])
    P = _invertible(rng, field, d)
    return BilinearForm(field, linalg.mat_mul(linalg.mat_mul(P, _matrix(field, g0)), linalg.transpose(P)))


def _random_subspace(rng, field, d, k):
    return Subspace(d, [[field.scalar(_draw(rng, field)) for _ in range(d)] for _ in range(k)])


def _cases(field, seed):
    """(form, subspace) pairs: Lagrangians, isotropic and non-isotropic
    subspaces of metabolic forms, and random forms, degenerate or not."""
    rng = random.Random(f"{field}:{seed}")
    n = rng.randint(0, 3)
    B, lag = _metabolic(rng, field, n)
    d = 2 * n
    out = [(B, Subspace(d, lag)), (B, Subspace(d, lag[: rng.randint(0, n)]))]
    out.append((B, _random_subspace(rng, field, d, rng.randint(0, d))))
    if n:
        # an isotropic subspace short of half the dimension, a subspace in
        # the wrong ambient space, shorter or longer, and one over GF(5)
        out.append((B, Subspace(d, lag[: n - 1])))
        out.append((B, _random_subspace(rng, field, d - 1, rng.randint(0, 2))))
        out.append((B, Subspace(d + 1, [list(row) + [field.zero] for row in lag])))
        out.append((B, Subspace(d, [[GF(5).scalar(x.value if field.characteristic else 1)
                                     for x in row] for row in lag])))
    e = rng.randint(1, 5)
    for rank in (e, rng.randint(0, e - 1)):
        form = _symmetric(rng, field, e, rank)
        out.append((form, _random_subspace(rng, field, e, rng.randint(0, e))))
        out.append((form, Subspace(e, [])))
    return out


SEEDS = range(25)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_forms_match_boxed_chains(field):
    seen = set()
    for seed in SEEDS:
        for B, W in _cases(field, seed):
            for new, ref in ((orth_complement, ref_orth_complement), (surgery, ref_surgery),
                             (metabolic_path, ref_metabolic_path)):
                got = _outcome(new, B, W)
                assert got == _outcome(ref, B, W), (new.__name__, seed, B.gram, W.rows)
                seen.add((new.__name__, got[0]))
    for name in ("orth_complement", "surgery", "metabolic_path"):
        assert {(name, "ok"), (name, "Degenerate"), (name, "DimensionMismatch"),
                (name, "FieldMismatch")} <= seen
    assert ("surgery", "NotIsotropic") in seen and ("metabolic_path", "NotLagrangian") in seen


def test_half_dimension_lagrangian_message():
    """A self-perpendicular subspace of a non-degenerate form has half its
    dimension, so a subspace of the wrong dimension fails the first check:
    the boxed chain's second message ("Lagrangian must have half the ambient
    dimension") is never reached (the sweep above would show it), and the
    raw routine no longer carries it."""
    H = hyperbolic_form(QQ, 2)
    line = Subspace(4, [[QQ.one, QQ.zero, QQ.zero, QQ.zero]])  # isotropic, dim 1 of 4
    for fn in (metabolic_path, ref_metabolic_path):
        with pytest.raises(NotLagrangian, match="subspace is not equal to its own perpendicular"):
            fn(H, line)


def test_gro_member_matches_boxed_chain():
    rng = random.Random(9)
    verdicts = set()
    for field in FIELDS:
        for _ in range(30):
            n = rng.randint(0, 3)
            W = _random_subspace(rng, field, 2 * n, rng.randint(0, 2 * n))
            want = ref_gro_member(W, n)
            assert gro_member(W, n) is want
            verdicts.add(want)
    assert verdicts == {True, False}
