import random
import re

import pytest

from gorlab import GF, QQ, linalg
from gorlab.algebra import Subspace
from gorlab.errors import (
    Degenerate,
    DimensionMismatch,
    NotEven,
    NotIsotropic,
    NotLagrangian,
    NotSpecialLinear,
    SignatureUnavailable,
)
from gorlab.forms import (
    BilinearForm,
    FormFamily,
    elementary_factorization,
    gro_member,
    hyp_embed,
    hyperbolic_form,
    is_even,
    is_nondegenerate,
    metabolic_path,
    orth_complement,
    radical,
    signature,
    surgery,
    witt_invariants,
)
from gorlab.scalar import TPoly

from helpers import full_space, zero_space

F2 = GF(2)
F7 = GF(7)


def B(field, rows):
    return BilinearForm(field, rows)


def test_radical_examples():
    assert radical(B(QQ, [[0, 1], [1, 0]])).dim == 0
    assert radical(B(QQ, [[0, 0], [0, 0]])) == full_space(QQ, 2)
    r = radical(B(QQ, [[1, 1], [1, 1]]))
    assert r == Subspace(2, [[QQ.one, QQ.scalar(-1)]])


def test_radical_zero_iff_nondegenerate():
    rng = random.Random(2)
    for _ in range(30):
        d = rng.randint(1, 5)
        g = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(i):
                g[i][j] = g[j][i]
        form = B(QQ, g)
        assert (radical(form).dim == 0) == is_nondegenerate(form)


def test_is_nondegenerate_examples():
    assert is_nondegenerate(B(QQ, [[0, 1], [1, 0]]))
    assert not is_nondegenerate(B(QQ, [[0, 0], [0, 0]]))
    assert is_nondegenerate(B(QQ, [[2, 0], [0, 3]]))


def test_orth_complement_examples():
    H = hyperbolic_form(QQ, 1)
    e1 = Subspace(2, [[QQ.one, QQ.zero]])
    assert orth_complement(H, e1) == e1  # isotropic line is self-perpendicular
    assert orth_complement(H, zero_space(2)) == full_space(QQ, 2)
    with pytest.raises(Degenerate):
        orth_complement(B(QQ, [[0, 0], [0, 0]]), e1)


def test_orth_complement_dimension():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(2, 5)
        g = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(i):
                g[i][j] = g[j][i]
        form = B(QQ, g)
        if not is_nondegenerate(form):
            continue
        k = rng.randint(1, d)
        W = Subspace(d, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)], QQ)
        assert W.dim + orth_complement(form, W).dim == d


def test_is_even():
    assert is_even(B(QQ, [[1, 0], [0, 1]]))
    assert is_even(B(F7, [[1, 2], [2, 3]]))
    assert not is_even(B(F2, [[1, 0], [0, 1]]))
    assert is_even(B(F2, [[0, 1], [1, 0]]))


def test_hyperbolic_form():
    assert hyperbolic_form(QQ, 1).gram == B(QQ, [[0, 1], [1, 0]]).gram
    assert hyperbolic_form(QQ, 0).dim == 0
    H2 = hyperbolic_form(QQ, 2)
    assert H2.dim == 4 and H2.gram[0][2] == QQ.one and H2.gram[0][1] == QQ.zero


def _check_embedding(form):
    E = hyp_embed(form)
    H = hyperbolic_form(form.field, form.dim)
    lhs = linalg.mat_mul(linalg.mat_mul(linalg.transpose(E), H.gram), E)
    assert lhs == form.gram


def test_hyp_embed_one_by_one():
    # B = [1] over QQ embeds via (1/2, 1): B_Hyp = 2 * 1/2 = 1
    form = B(QQ, [[1]])
    E = hyp_embed(form)
    assert E == ((QQ.scalar(1) / QQ.scalar(2),), (QQ.one,))
    _check_embedding(form)


def test_hyp_embed_examples():
    _check_embedding(hyperbolic_form(QQ, 1))
    _check_embedding(B(F2, [[0, 1], [1, 0]]))
    with pytest.raises(NotEven):
        hyp_embed(B(F2, [[1, 0], [0, 0]]))


def test_hyp_embed_random():
    rng = random.Random(4)
    for _ in range(25):
        d = rng.randint(1, 5)
        g = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(i):
                g[i][j] = g[j][i]
        _check_embedding(B(QQ, g))
    for _ in range(25):
        d = rng.randint(1, 5)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(0, 1)
        _check_embedding(B(F2, g))


def test_surgery_kills_hyperbolic_plane():
    H = hyperbolic_form(QQ, 1)
    res = surgery(H, Subspace(2, [[QQ.one, QQ.zero]]))
    assert res.form.dim == 0


def test_surgery_hyp2_gives_hyperbolic_plane():
    H = hyperbolic_form(QQ, 2)
    res = surgery(H, Subspace(4, [[QQ.one, QQ.zero, QQ.zero, QQ.zero]]))
    assert res.form.dim == 2
    assert is_nondegenerate(res.form)
    # the induced form is again hyperbolic: signature 0, det class -1
    inv = witt_invariants(res.form)
    assert inv.signature == 0 and inv.det_square_class == QQ.scalar(-1)


def test_surgery_requires_isotropic():
    I2 = B(QQ, [[1, 0], [0, 1]])
    with pytest.raises(NotIsotropic):
        surgery(I2, Subspace(2, [[QQ.one, QQ.zero]]))


def test_surgery_dimension_drop():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 3)
        H = hyperbolic_form(QQ, n)
        W = Subspace(2 * n, [[QQ.one] + [QQ.zero] * (2 * n - 1)])
        res = surgery(H, W)
        assert res.form.dim == 2 * n - 2


def test_metabolic_path_example():
    form = B(QQ, [[0, 1], [1, 5]])
    L = Subspace(2, [[QQ.one, QQ.zero]])
    mp = metabolic_path(form, L)
    assert mp.family.at(0).gram == hyperbolic_form(QQ, 1).gram
    f1 = mp.family.at(1)
    P = mp.adapted_basis
    assert linalg.mat_mul(linalg.mat_mul(P, form.gram), linalg.transpose(P)) == f1.gram
    # the t-entry is the 5 in the lower corner
    assert mp.family.gram[1][1].coeffs[1] == QQ.scalar(5)


def test_metabolic_path_already_hyperbolic_is_constant():
    H = hyperbolic_form(QQ, 1)
    L = Subspace(2, [[QQ.one, QQ.zero]])
    mp = metabolic_path(H, L)
    assert mp.family.at(0).gram == mp.family.at(1).gram == H.gram


def test_metabolic_path_fiber_zero_nondegenerate():
    form = B(QQ, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 3, 1], [0, 1, 1, -2]])
    L = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]], QQ)
    mp = metabolic_path(form, L)
    f0 = mp.family.at(0)
    assert f0.gram == hyperbolic_form(QQ, 2).gram
    assert is_nondegenerate(f0)


def test_metabolic_path_rejects_non_lagrangian():
    with pytest.raises(NotLagrangian):
        metabolic_path(B(QQ, [[1, 0], [0, 1]]), Subspace(2, [[QQ.one, QQ.zero]]))


def test_witt_invariants_examples():
    ident = B(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    inv = witt_invariants(ident)
    assert inv.rank == 3 and inv.signature == 3 and inv.det_square_class == QQ.one
    assert witt_invariants(hyperbolic_form(QQ, 2)).signature == 0
    inv2 = witt_invariants(B(QQ, [[2, 0], [0, -3]]))
    assert inv2.signature == 0 and inv2.det_square_class == QQ.scalar(-6)
    with pytest.raises(Degenerate):
        witt_invariants(B(QQ, [[0, 0], [0, 0]]))
    assert witt_invariants(B(F7, [[1, 0], [0, 3]])).signature is None
    with pytest.raises(SignatureUnavailable):
        signature(B(F7, [[1, 0], [0, 3]]))


def test_witt_invariants_take_one_determinant(monkeypatch):
    calls = []
    det = linalg.det

    def counted(*a):
        calls.append(a)
        return det(*a)

    monkeypatch.setattr(linalg, "det", counted)
    form = B(QQ, [[2, 1, 0], [1, 0, 0], [0, 0, -3]])
    inv = witt_invariants(form)
    assert len(calls) == 1
    assert (inv.rank, inv.signature) == (3, signature(form))


def test_gram_checks_and_immutability():
    t = TPoly(QQ, (0, 1))
    for cls in (BilinearForm, FormFamily):
        with pytest.raises(DimensionMismatch, match="^Gram matrix must be square$"):
            cls(QQ, [[1, 0]])
        obj = cls(QQ, [[1]])
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            obj.gram = ((0,),)
        assert obj.gram == ((obj._entry(1, QQ),),)
    with pytest.raises(DimensionMismatch, match=re.escape("Gram matrix not symmetric at (0,1)")):
        BilinearForm(QQ, [[1, 2], [3, 1]])
    with pytest.raises(DimensionMismatch, match=re.escape("family Gram not symmetric at (0,1)")):
        FormFamily(QQ, [[1, t], [0, 1]])
    gram = [[[], ["0", "1"]], [["0", "1"], ["1"]]]  # coefficient lists, low degree first
    assert FormFamily(QQ, [[0, t], [t, 1]]).serialize()["gram"] == gram
    assert BilinearForm(GF(7), [[3]]).serialize()["gram"] == [["3 mod 7"]]


def test_signature_zero_diagonal_block():
    # all-zero diagonal needs the hyperbolic 2x2 split path
    assert signature(B(QQ, [[0, 1], [1, 0]])) == 0
    assert signature(B(QQ, [[0, 2], [2, 0]])) == 0


def test_witt_stability_under_hyperbolic_sum():
    rng = random.Random(6)
    for _ in range(10):
        d = rng.randint(1, 4)
        g = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(i):
                g[i][j] = g[j][i]
        form = B(QQ, g)
        if not is_nondegenerate(form):
            continue
        big = [[QQ.zero] * (d + 2) for _ in range(d + 2)]
        for i in range(d):
            for j in range(d):
                big[i][j] = form.gram[i][j]
        big[d][d + 1] = big[d + 1][d] = QQ.one
        assert signature(B(QQ, big)) == signature(form)


def test_signature_additive_under_direct_sum():
    rng = random.Random(12)
    for _ in range(10):
        da, db = rng.randint(1, 3), rng.randint(1, 3)

        def rand_form(d):
            while True:
                g = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
                for i in range(d):
                    for j in range(i):
                        g[i][j] = g[j][i]
                form = B(QQ, g)
                if is_nondegenerate(form):
                    return form

        fa, fb = rand_form(da), rand_form(db)
        big = [[QQ.zero] * (da + db) for _ in range(da + db)]
        for i in range(da):
            for j in range(da):
                big[i][j] = fa.gram[i][j]
        for i in range(db):
            for j in range(db):
                big[da + i][da + j] = fb.gram[i][j]
        assert signature(B(QQ, big)) == signature(fa) + signature(fb)


def test_gro_member_examples():
    e1 = Subspace(2, [[QQ.one, QQ.zero]])
    assert not gro_member(e1, 1)
    diag = Subspace(2, [[QQ.one, QQ.one]])
    assert gro_member(diag, 1)
    assert gro_member(full_space(QQ, 4), 2)
    with pytest.raises(DimensionMismatch):
        gro_member(e1, 2)


def _check_factorization(M, field=QQ):
    factors = elementary_factorization(M)
    prod = linalg.identity(field, len(M))
    for F in factors:
        prod = linalg.mat_mul(F, prod)
        # each factor: identity except one off-diagonal entry
        diffs = [
            (i, j)
            for i in range(len(M))
            for j in range(len(M))
            if F[i][j] != (field.one if i == j else field.zero)
        ]
        assert len(diffs) == 1 and diffs[0][0] != diffs[0][1]
    assert prod == linalg.mat(M)


def test_elementary_factorization_examples():
    assert elementary_factorization(linalg.identity(QQ, 3)) == []
    M = [[QQ.one, QQ.scalar(5)], [QQ.zero, QQ.one]]
    factors = elementary_factorization(M)
    assert len(factors) == 1 and factors[0] == linalg.mat(M)
    cyc = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    cyc = [[QQ.scalar(x) for x in r] for r in cyc]
    _check_factorization(cyc)
    with pytest.raises(NotSpecialLinear):
        elementary_factorization([[QQ.scalar(2)]])


def test_elementary_factorization_random_sl3():
    rng = random.Random(7)
    for _ in range(20):
        M = linalg.identity(QQ, 3)
        for _ in range(6):
            i = rng.randrange(3)
            j = rng.randrange(3)
            if i == j:
                continue
            E = [list(r) for r in linalg.identity(QQ, 3)]
            E[i][j] = QQ.scalar(rng.randint(-3, 3))
            M = linalg.mat_mul(E, M)
        assert linalg.det(QQ, M) == QQ.one
        _check_factorization(M)


def test_metabolic_path_over_f2():
    # no halving anywhere: the Lagrangian bookkeeping works in char 2
    B2 = B(F2, [[0, 1], [1, 1]])
    L = Subspace(2, [[F2.one, F2.zero]])
    mp = metabolic_path(B2, L)
    assert mp.family.at(0).gram == hyperbolic_form(F2, 1).gram
    P = mp.adapted_basis
    lhs = linalg.mat_mul(linalg.mat_mul(P, B2.gram), linalg.transpose(P))
    assert lhs == mp.family.at(1).gram


def test_elementary_factorization_f2():
    f2 = GF(2)
    rng = random.Random(9)
    for _ in range(10):
        M = linalg.identity(f2, 3)
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i == j:
                continue
            E = [list(r) for r in linalg.identity(f2, 3)]
            E[i][j] = f2.scalar(rng.randint(0, 1))
            M = linalg.mat_mul(E, M)
        _check_factorization(M, f2)


def test_elementary_factorization_f7():
    rng = random.Random(8)
    for _ in range(10):
        M = linalg.identity(F7, 3)
        for _ in range(5):
            i, j = rng.randrange(3), rng.randrange(3)
            if i == j:
                continue
            E = [list(r) for r in linalg.identity(F7, 3)]
            E[i][j] = F7.scalar(rng.randrange(7))
            M = linalg.mat_mul(E, M)
        _check_factorization(M, F7)
