"""The consumers of B_phi on the pairing's integer read, against boxed paths.

An ``OrientedAlgebra`` keeps the integer read of its pairing (``_read``: Gram
rows G over a scale), and ``socle_generator``, ``isotropy_check``,
``frobenius._split`` (``decompose_augmented``, ``degeneration_to_cw``),
``rees_family`` and ``surgery_inverse`` work on it.  The references below are
the boxed paths they replaced: ``linalg.solve_right`` on the boxed Gram
matrix for socle generators; ``ref_split``, the split on Fraction rows of the
unboxed Gram matrix; ``ref_rees_family``, the unit-line surgery on the boxed
form, x by a boxed affine solve (free coordinates 0), a boxed
``base_change`` and the family Gram recomputed by ``fam.gram()``; and
``ref_graded_family``, the regrading that built a fresh zero matrix per
table entry.  Both sides must give the same values with the same types
(Fractions over QQ, ints over F_p), on derandomized corpora over QQ, F_2,
F_3 and F_7.  A count of Scalar and TPoly operators asserts that the new
paths run none.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, frobenius, linalg
from gorlab.algebra import AlgebraFamily, FiniteAlgebra, _table_on_rows, base_change
from gorlab.families import scale_multiplication_family
from gorlab.forms import BilinearForm, FormFamily
from gorlab.frobenius import (
    OrientedAlgebra,
    _split,
    decompose_augmented,
    isotropy_check,
    rees_family,
    socle_generator,
    surgery_inverse,
)
from gorlab.scalar import TPoly
from gorlab.tensors import degeneration_to_cw

from corpus import build_corpus
from helpers import complement_in
from test_constructors import count_boxed_arithmetic, exact, outcome

FIELDS = (QQ, GF(2), GF(3), GF(7))


@lru_cache(maxsize=None)
def corpus(field):
    return build_corpus(field, 12, seed=4)


def isotropic(t):
    """t's algebra oriented by phi - phi(1) e, so that phi(1) = 0."""
    lam = t.oa.phi_of(t.algebra.unit)
    return OrientedAlgebra(t.algebra, [a - lam * b for a, b in zip(t.oa.phi, t.e)])


def ref_socle(oa, e):
    return linalg.solve_right(oa.field, oa.form.gram, oa.algebra.coerce_vector(e))


def ref_split(oa, e):
    """The split as it ran on Fraction rows of the unboxed Gram matrix."""
    A, f = oa.algebra, oa.field
    e = A.coerce_vector(e)
    x = ref_socle(oa, e)
    if linalg.sum_dot(e, x):
        raise frobenius.NotIsotropic("augmentation is not isotropic")
    p = f.characteristic
    zero = 0 if p else Fraction(0)
    _, G = linalg.unbox(oa.form.gram, f)
    _, (xr, ur) = linalg.unbox([x, A.unit], f)
    gx, g1 = linalg.raw_mul([xr, ur], G, p, zero)
    Vr = linalg.raw_kernel([gx[:], g1[:]], A.dim, p)
    VG = linalg.raw_mul(Vr, G, p, zero)
    gramV = linalg._box(f, linalg.raw_mul(VG, [list(col) for col in zip(*Vr)], p, zero))
    labels = tuple(f"v{i + 1}" for i in range(len(Vr)))
    adapted = linalg.mat([A.unit, x] + list(linalg._box(f, Vr)))
    return oa.phi_of(A.unit), BilinearForm(f, gramV), labels, adapted, (gx, g1, xr, ur, Vr)


def ref_decompose_read(oa, e):
    """The read of V's table as decompose_augmented built it on the
    reference split: its map C in Fractions, read by _integer_rows."""
    lam, _, labels, _, (gx, g1, xr, ur, Vr) = ref_split(oa, e)
    A, f = oa.algebra, oa.field
    p, lr = f.characteristic, lam.value
    P = [next(c for c, v in enumerate(row) if v) for row in Vr]
    C = [[int(j == k) - gx[j] * ur[k] - (g1[j] - lr * gx[j]) * xr[k] for k in P]
         for j in range(A.dim)]
    C = [[v % p for v in row] for row in C] if p else C
    (R, L_R), (C, L_C) = linalg._integer_rows(Vr), linalg._integer_rows(C)
    planes, scale = _table_on_rows(f, [A], R, L_R, [(0, C)], L_C)
    return FiniteAlgebra.on_read(planes, scale, f, labels, validate=False).raw


def ref_affine_solve(field, m, b):
    """Some solution of M x = b by one boxed rref, free coordinates 0."""
    ncols = len(m[0])
    red, pivots = linalg.rref([list(r) + [bv] for r, bv in zip(m, b)], ncols + 1)
    assert ncols not in pivots
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return tuple(x)


def ref_line_surgery(B, v):
    """Surgery along the line of v on the boxed form: ker(v·G), a greedy
    complement of v in it, and S·G·S^T by boxed products."""
    f, d = B.field, B.dim
    perp = linalg.kernel_basis(f, [linalg.vec_mat(v, B.gram)], d)
    S = complement_in(f, [tuple(v)], perp, d)
    return BilinearForm(f, linalg.mat_mul(linalg.mat_mul(S, B.gram), linalg.transpose(S))), S


def ref_rees_family(oa):
    """rees_family on the boxed Gram matrix."""
    A, f = oa.algebra, oa.field
    if oa.phi_of(A.unit):
        raise frobenius.NotIsotropicUnit("phi(1) must vanish")
    D, evecs = ref_line_surgery(oa.form, A.unit)
    constraints = [tuple(oa.phi)] + [linalg.mat_vec(oa.form.gram, ev) for ev in evecs]
    x = ref_affine_solve(f, constraints, [f.one] + [f.zero] * len(evecs))
    adapted = linalg.mat([A.unit] + list(evecs) + [x])
    labels = ["1"] + [f"e{i + 1}*t" for i in range(len(evecs))] + ["x*t^2"]
    phi = [f.zero] * (A.dim - 1) + [f.one]
    fam = ref_graded_family(base_change(A, adapted), [0] + [1] * len(evecs) + [2], labels,
                            orientation=phi)
    return fam, adapted, FormFamily(f, fam.gram()), D


def ref_graded_family(A, weights, labels, **extra):
    d = A.dim
    (*planes, _), L = A.raw
    graded = []
    for i, plane in enumerate(planes):
        by_exp = {}
        for _, X in plane:
            for j, row in enumerate(X):
                for k, v in enumerate(row):
                    if v:
                        exp = weights[i] + weights[j] - weights[k]
                        by_exp.setdefault(exp, [[0] * d for _ in range(d)])[j][k] = v
        graded.append(sorted(by_exp.items()))
    return AlgebraFamily.on_read(graded, L, A.field, labels, A.unit, validate=False, **extra)


def family_parts(F):
    """Everything a family holds, with the types of its raw values."""
    return (F.raw, F.labels, exact(F.c), exact(F.unit), exact(F.orientation),
            {k: exact(v) for k, v in F.augmentations.items()})


@st.composite
def functionals(draw, t):
    """t.e, or a random functional (a socle generator exists for any)."""
    f = t.oa.field
    if draw(st.booleans()):
        return t.e
    if f.characteristic == 0 and draw(st.booleans()):
        return tuple(f.scalar(Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2, 7)))))
                     for _ in t.e)
    return tuple(f.scalar(draw(st.integers(-3, 3))) for _ in t.e)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_socle_generator_matches_the_boxed_solve(data):
    field = data.draw(st.sampled_from(FIELDS))
    t = data.draw(st.sampled_from(corpus(field)))
    e = data.draw(functionals(t))
    x = socle_generator(t.oa, e)
    assert exact(x) == exact(ref_socle(t.oa, e))
    assert isotropy_check(t.oa, e) == (not linalg.sum_dot(e, x))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_socle_generator_matches_the_boxed_solve(field):
    for t in corpus(field):
        for oa in (t.oa, isotropic(t)):
            for e in (t.e, oa.phi, oa.algebra.unit):
                assert exact(socle_generator(oa, e)) == exact(ref_socle(oa, e))


def split_values(f, raw):
    """_split's raw values as the reference holds them: (x·G, 1·G, x, 1, V)
    as raw values, Fractions at p = 0."""
    rows, (gx, g1, Ls), (X, U, L), (V, L_V) = raw
    p = f.characteristic

    def values(row, scale):
        return [v if p else Fraction(v, scale) for v in row]

    out = (values(gx, Ls), values(g1, Ls), values(X, L), values(U, L),
           [values(row, L_V) for row in V])
    assert [exact(r) for r in rows] == [exact(r) for r in [out[3], out[2], *out[4]]]
    return out


def raw_exact(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_split_matches_the_fraction_rows(field):
    for t in corpus(field):
        lam, form, labels, adapted, raw = _split(t.oa, t.e)
        rlam, rform, rlabels, radapted, rraw = ref_split(t.oa, t.e)
        assert exact(lam) == exact(rlam) and labels == rlabels
        assert exact(form.gram) == exact(rform.gram) and exact(adapted) == exact(radapted)
        *vecs, V = split_values(field, raw)
        *rvecs, rV = rraw
        # the reference's Fraction products hold Fractions; compare values there
        assert [list(v) for v in vecs] == [list(v) for v in rvecs] and V == rV
        assert raw_exact(V) == raw_exact(rV)
        dec = decompose_augmented(t.oa, t.e)
        assert exact(dec.adapted_basis) == exact(radapted)
        # V's table keeps the read the Fraction path gave it, scale included
        assert dec.nonunital.algebra.raw == ref_decompose_read(t.oa, t.e)


def test_split_rejects_what_the_reference_rejects():
    for field in (QQ, GF(7)):
        for t in corpus(field)[:6]:
            e = tuple(t.e[:1]) + tuple(a + b for a, b in zip(t.e[1:], t.oa.phi[1:]))
            assert outcome(lambda: _split(t.oa, e)[:1]) == outcome(lambda: ref_split(t.oa, e)[:1])


def rees_parts(rr):
    fam, adapted, gram, D = rr
    return (family_parts(fam), exact(adapted),
            tuple(tuple((exact(x), tuple(type(c.value) for c in x.coeffs)) for x in row)
                  for row in gram.gram),
            exact(D.gram))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rees_family_matches_the_boxed_path(field):
    for t in corpus(field):
        oa = isotropic(t)
        rr = rees_family(oa)
        assert rees_parts((rr.family, rr.adapted_basis, rr.gram, rr.surgered)) == \
            rees_parts(ref_rees_family(oa))
        assert isinstance(rr.gram, FormFamily)
        assert exact(surgery_inverse(oa).gram) == exact(rr.surgered.gram)
        # the adapted basis has phi = (0, ..., 0, 1) and unit e_0
        assert rr.family.unit == rr.family.coerce_vector([1] + [0] * (oa.dim - 1))


def test_rees_family_rejects_a_unit_off_the_kernel():
    t = corpus(QQ)[3]
    assert outcome(rees_family, t.oa) == outcome(ref_rees_family, t.oa)
    assert outcome(surgery_inverse, t.oa) == outcome(rees_family, t.oa)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_graded_families_match_the_eager_regrading(field):
    for t in corpus(field)[:8]:
        oa = isotropic(t)
        rr = rees_family(oa)
        assert family_parts(rr.family) == family_parts(ref_rees_family(oa)[0])
        nu = decompose_augmented(t.oa, t.e).nonunital
        assert family_parts(scale_multiplication_family(nu)) == family_parts(
            ref_graded_family(nu.algebra, [1] * nu.dim, nu.algebra.labels))
        rep = degeneration_to_cw(t)
        U = base_change(t.algebra, rep.adapted_basis, rep.family.labels)
        ref = ref_graded_family(U, [0, 2] + [1] * (t.oa.dim - 2), rep.family.labels,
                                orientation=rep.family.orientation,
                                augmentations=dict(rep.family.augmentations))
        assert family_parts(rep.family) == family_parts(ref)


@pytest.mark.parametrize("field", (QQ, GF(7)), ids=str)
def test_pairing_consumers_run_no_boxed_arithmetic(field):
    # socle_generator, _split and rees_family read the Gram read as integers
    # and box what they return once: no Scalar or TPoly operator runs
    for t in corpus(field)[2:6]:
        oa = isotropic(t)
        for fn, args in ((socle_generator, (t.oa, t.e)), (_split, (t.oa, t.e)),
                         (rees_family, (oa,))):
            _, count = count_boxed_arithmetic(fn, *args)
            assert count == 0, fn.__name__


def test_rees_gram_is_closed_form():
    # [[0, 0, 1], [0, D, 0], [1, 0, B(x, x) t^2]], D's entries on surgered's Scalars
    for field in FIELDS:
        for t in corpus(field)[:6]:
            oa = isotropic(t)
            rr = rees_family(oa)
            g, d = rr.gram.gram, oa.dim
            x = rr.adapted_basis[-1]
            assert g[0][d - 1] == TPoly.const(field.one) == g[d - 1][0]
            assert g[d - 1][d - 1] == TPoly(field, (0, 0, oa.form.apply(x, x)))
            for i in range(1, d - 1):
                for j in range(1, d - 1):
                    assert g[i][j].coeffs in ((), (rr.surgered.gram[i - 1][j - 1],))
                    if g[i][j]:
                        assert g[i][j].coeffs[0] is rr.surgered.gram[i - 1][j - 1]
