"""Acceptance suite: one test per criterion, every equality exact.

Each test prints a single PASS line on success (run with -s to stream
them); any failure surfaces as an ordinary assertion error.
"""

import random

from certificates import assert_not_gorenstein_certificate
from corpus import random_invertible, random_nondegenerate_form

from gorlab import GF, QQ, linalg, poly_ring, quotient_algebra
from gorlab.algebra import (
    FiniteAlgebra,
    Subspace,
    annihilator,
    base_change,
    direct_product,
    ideal_span,
    multiply,
    validate_structure,
)
from gorlab.errors import GenericityFailure
from gorlab.families import (
    family_socle_generator,
    gm_rescale_check,
    homotopy_families,
    robber_family,
    specialize,
)
from gorlab.forms import (
    BilinearForm,
    hyp_embed,
    hyperbolic_form,
    is_nondegenerate,
    metabolic_path,
    orth_complement,
    witt_invariants,
)
from gorlab.frobenius import (
    Augmented,
    OrientedAlgebra,
    augmentation_check,
    b_phi,
    connected_sum,
    decompose_augmented,
    form_to_algebra,
    gorenstein_test,
    isotropy_check,
    rees_family,
    socle_generator,
    surgery_inverse,
    unitalize,
)
from gorlab.scalar import TPoly, tpoly_eval
from gorlab.tensors import (
    aq_algebra,
    cw_tensor,
    degeneration_to_cw,
    one_generic,
    reduced_degeneration,
    strassen_commuting,
    structure_tensor,
)

F2 = GF(2)
F7 = GF(7)


def _pass(n, text):
    print(f"PASS  criterion {n:2d}: {text}")


def dual_numbers(field=QQ):
    x, = poly_ring(field, "x")
    return quotient_algebra([x**2])


def chain(field, n):
    x, = poly_ring(field, "x")
    return quotient_algebra([x**n])


def split_algebra(field, d):
    """field^d in the split basis, with the summation orientation."""
    z = field.zero
    c = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        c[i][i][i] = field.one
    A = FiniteAlgebra(field, [f"p{i}" for i in range(d)], c, unit=[1] * d)
    return OrientedAlgebra(A, [1] * d)


def test_criterion_01_gram_fidelity():
    A = dual_numbers()
    B = b_phi(A, [0, 1])
    assert B.gram == ((QQ.zero, QQ.one), (QQ.one, QQ.zero))
    _pass(1, "B_phi of (QQ[x]/x^2, phi_0) is [[0,1],[1,0]] byte-exactly")


def test_criterion_02_robber_socle_generators():
    rob = robber_family(QQ)
    t = TPoly.t(QQ)
    z = TPoly(QQ)
    one = TPoly.const(QQ.one)
    s_const = family_socle_generator(rob, "const")
    s_mv = family_socle_generator(rob, "mv")
    assert s_const == (z, t**2, -2 * t, one)  # t^2 x - 2t x^2 + x^3
    assert s_mv == (z, z, -t, one)  # -t x^2 + x^3
    for name, s in (("const", s_const), ("mv", s_mv)):
        e = rob.augmentations[name]
        assert not linalg.sum_dot(e, s)  # isotropy as a polynomial identity
    _pass(2, "robber socle generators match the quoted polynomials; isotropic")


def test_criterion_03_robber_fibers():
    fib0 = specialize(robber_family(QQ), 0)
    A0 = fib0.algebra
    x = A0.basis_vector(1)
    x3 = multiply(A0, multiply(A0, x, x), x)
    assert any(x3)  # x^3 != 0
    assert multiply(A0, x3, x) == (QQ.zero,) * 4  # x^4 = 0
    assert fib0.orientation == (QQ.zero, QQ.zero, QQ.zero, QQ.one)

    fib1 = specialize(robber_family(QQ), 1)
    A1 = fib1.algebra
    e1 = A1.coerce_vector([1, 0, -3, 2])
    e2 = tuple(u - v for u, v in zip(A1.unit, e1))
    assert multiply(A1, e1, e1) == e1
    assert multiply(A1, e2, e2) == e2
    assert multiply(A1, e1, e2) == (QQ.zero,) * 4
    # explicit basis change onto dual x dual
    e1x = multiply(A1, e1, A1.basis_vector(1))
    e2xm1 = multiply(A1, e2, tuple(a - b for a, b in zip(A1.basis_vector(1), A1.unit)))
    P = [e1, e1x, e2, e2xm1]
    target = direct_product(dual_numbers(), dual_numbers())
    moved = base_change(A1, P, labels=target.labels)
    assert moved == target
    _pass(3, "robber fibers: t=0 is QQ[x]/x^4 with (x^3)*, t=1 is dual x dual")


def _validate_augmented(t: Augmented):
    validate_structure(t.algebra.c, t.algebra.unit, t.oa.field.zero)
    assert is_nondegenerate(t.oa.form)
    assert augmentation_check(t.algebra, t.e)
    assert isotropy_check(t.oa, t.e)


def test_criterion_04_connected_sums(corpus_q, corpus_f7):
    for corpus in (corpus_q, corpus_f7):
        for a, b in zip(corpus, corpus[1:]):
            s = connected_sum(a, b)
            assert s.oa.dim == a.oa.dim + b.oa.dim - 2
            _validate_augmented(s)
    # dual # dual is dual with phi_0
    td = Augmented(OrientedAlgebra(dual_numbers(), [0, 1]), [1, 0])
    s = connected_sum(td, td)
    assert s.oa.dim == 2
    assert s.oa.phi == (QQ.zero, QQ.one)
    assert s.algebra.c[1][1] == (QQ.zero, QQ.zero)
    _pass(4, "connected sums: dimension d1+d2-2 and all validators, 98 sums")


def test_criterion_05_aug_uni_roundtrip(corpus_all):
    for t in corpus_all:
        dec = decompose_augmented(t.oa, t.e)
        rebuilt = unitalize(dec.lam, dec.nonunital)
        adapted = base_change(
            t.algebra, dec.adapted_basis, labels=rebuilt.algebra.labels
        )
        assert rebuilt.algebra.c == adapted.c
        assert rebuilt.algebra.unit == adapted.unit
        phi_ad = tuple(linalg.sum_dot(r, t.oa.phi) for r in dec.adapted_basis)
        e_ad = tuple(linalg.sum_dot(r, t.e) for r in dec.adapted_basis)
        assert rebuilt.oa.phi == phi_ad and rebuilt.e == e_ad
    _pass(5, "decompose-then-unitalize reproduces structure constants, 100x")


def test_criterion_06_lemma_suite(corpus_all):
    rng = random.Random("lemmas")
    for t in corpus_all:
        A = t.algebra
        d = A.dim
        for _ in range(5):
            gens = [
                [rng.randint(-2, 2) for _ in range(d)]
                for _ in range(rng.randint(1, 2))
            ]
            I = ideal_span(A, gens)
            assert orth_complement(t.oa.form, I) == annihilator(A, I)
        x = socle_generator(t.oa, t.e)
        ker = Subspace(d, linalg.kernel_basis(A.field, [t.e], d))
        assert annihilator(A, ker) == Subspace(d, [x])
        assert multiply(A, x, x) == (A.field.zero,) * d
        assert t.oa.phi_of(x) == A.field.one
    _pass(6, "I-perp = Ann(I) on 500 ideals; local socle lemma on the corpus")


def _isotropic_corpus(field, count, seed):
    """Oriented algebras with phi(1) = 0, scrambled."""
    rng = random.Random((seed, field.characteristic, "rees").__str__())
    out = []
    while len(out) < count:
        kind = rng.choice(["chain", "form"])
        if kind == "chain":
            n = rng.randint(2, 5)
            A = chain(field, n)
            phi = [field.zero] * n
            phi[n - 1] = field.one
            oa = OrientedAlgebra(A, phi)
        else:
            m = rng.randint(0, 4)
            B = random_nondegenerate_form(rng, field, m)
            oa = form_to_algebra(B).oa
        P = random_invertible(rng, field, oa.dim)
        A2 = base_change(oa.algebra, P)
        phi2 = tuple(linalg.sum_dot(row, oa.phi) for row in P)
        out.append(OrientedAlgebra(A2, phi2))
    return out


def test_criterion_07_rees_family():
    cases = _isotropic_corpus(QQ, 10, 0) + _isotropic_corpus(F7, 10, 0)
    for oa in cases:
        rr = rees_family(oa)
        d = oa.dim
        f = oa.field
        zt = TPoly(f)
        ot = TPoly.const(f.one)
        g = rr.gram.gram
        # quoted matrix [[0,0,1],[0,D,0],[1,0,phi(x^2) t^2]]
        assert g[0][0] == zt and g[0][d - 1] == ot
        for i in range(1, d - 1):
            assert g[0][i] == zt and g[i][d - 1] == zt
            for j in range(1, d - 1):
                assert g[i][j] == TPoly.const(rr.surgered.gram[i - 1][j - 1])
        tail = g[d - 1][d - 1]
        assert not tail or (
            len(tail.coeffs) == 3 and not tail.coeffs[0] and not tail.coeffs[1]
        )
        # fiber at 1: the input through the recorded base change
        f1 = rr.family.at(1)
        moved = base_change(oa.algebra, rr.adapted_basis, labels=rr.family.labels)
        assert f1 == moved
        phi1 = tuple(tpoly_eval(x, 1) for x in rr.family.orientation)
        assert phi1 == tuple(linalg.sum_dot(r, oa.phi) for r in rr.adapted_basis)
        # fiber at 0: form_to_algebra(surgery_inverse) on the nose, after the
        # canonical reordering (1, e_i, x) -> (1, x, v_i)
        fta = form_to_algebra(surgery_inverse(oa))
        P = [[1 if j == 0 else 0 for j in range(d)]]
        P.append([1 if j == d - 1 else 0 for j in range(d)])
        for i in range(d - 2):
            P.append([1 if j == 1 + i else 0 for j in range(d)])
        f0 = rr.family.at(0)
        assert base_change(f0, P, labels=fta.algebra.labels) == fta.algebra
        phi0 = tuple(tpoly_eval(x, 0) for x in rr.family.orientation)
        assert tuple(linalg.sum_dot(r, phi0) for r in P) == fta.oa.phi
    _pass(7, "Rees family Gram, fiber-1 transport, fiber-0 identification, 20x")


def test_criterion_08_surgery_roundtrip():
    rng = random.Random("surgery")
    for field in (QQ, F7):
        for _ in range(50):
            d = rng.randint(1, 6)
            B = random_nondegenerate_form(rng, field, d)
            t = form_to_algebra(B)
            back = surgery_inverse(t.oa)
            assert back.gram == B.gram
    _pass(8, "surgery_inverse(form_to_algebra(B)) = B, 100 forms, dims 1-6")


def test_criterion_09_signature_obstruction():
    for d in range(2, 9):
        oa = split_algebra(QQ, d)
        inv = witt_invariants(oa.form)
        assert inv.signature == d
        assert inv.signature > d - 2
    _pass(9, "summation form on QQ^d has signature d > d-2 for d = 2..8")


def test_criterion_10_cw_identification():
    for q in range(1, 7):
        T = cw_tensor(QQ, q)
        assert T == structure_tensor(aq_algebra(QQ, q))
        rep = one_generic(T)
        assert rep.status == "witness"
        assert strassen_commuting(T, rep.witness)
    _pass(10, "CW_q = structure tensor of A_q, 1-generic and commuting, q = 1..6")


def test_criterion_11_degeneration_family():
    for field in (QQ, F7):
        A = chain(field, 4)
        t = Augmented(OrientedAlgebra(A, [0, 0, 0, 1]), [1, 0, 0, 0])
        rep = degeneration_to_cw(t)
        f0 = rep.family.at(0)
        m = rep.v_form.dim
        assert m == 2 and is_nondegenerate(rep.v_form)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    assert not f0.c[2 + i][2 + j][2 + k]
        f1 = rep.family.at(1)
        assert f1.c == base_change(A, rep.adapted_basis).c
        for c in (2, 3):
            assert gm_rescale_check(rep.family, c)
    _pass(11, "degeneration family fibers and Gm rescaling over QQ and F7")


def test_criterion_12_reduced_degeneration():
    from gorlab.errors import BoundTooSmall

    for q in (1, 2, 3):
        rep = None
        for seed in range(5):
            try:
                rep = reduced_degeneration(q, seed)
                break
            except (GenericityFailure, BoundTooSmall):
                continue
        assert rep is not None, f"no generic sample for q={q} within 5 seeds"
        assert rep.hilbert == [1, q, 1]
        assert rep.limit.dim == q + 2
        assert rep.gorenstein.status == "oriented"
    _pass(12, "reduced degenerations reach Hilbert (1,q,1) Gorenstein limits")


def test_criterion_13_hyperbolic_embedding():
    rng = random.Random("embed")
    count = 0
    for _ in range(50):
        d = rng.randint(1, 6)
        g = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(i):
                g[i][j] = g[j][i]
        B = BilinearForm(QQ, g)
        E = hyp_embed(B)
        H = hyperbolic_form(QQ, d)
        assert (
            linalg.mat_mul(linalg.mat_mul(linalg.transpose(E), H.gram), E) == B.gram
        )
        count += 1
    for _ in range(50):
        d = rng.randint(1, 6)
        g = [[F2.zero] * d for _ in range(d)]
        for i in range(d):
            for j in range(i):
                g[i][j] = g[j][i] = F2.scalar(rng.randint(0, 1))
        B = BilinearForm(F2, g)
        E = hyp_embed(B)
        H = hyperbolic_form(F2, d)
        assert (
            linalg.mat_mul(linalg.mat_mul(linalg.transpose(E), H.gram), E) == B.gram
        )
        count += 1
    assert count == 100
    _pass(13, "E^T G_Hyp E = G_B for 100 random even forms (QQ and F2)")


def test_criterion_14_metabolic_path():
    rng = random.Random("metabolic")
    for field in (QQ, F7):
        for _ in range(25):
            n = rng.randint(1, 3)
            d = 2 * n
            z, o = field.zero, field.one
            g = [[z] * d for _ in range(d)]
            for i in range(n):
                g[i][n + i] = g[n + i][i] = o
                for j in range(i, n):
                    v = field.scalar(rng.randint(-3, 3))
                    g[n + i][n + j] = g[n + j][n + i] = v
            Q = random_invertible(rng, field, d)
            Qinv = linalg.invert(field, Q)
            gram = linalg.mat_mul(linalg.mat_mul(Q, g), linalg.transpose(Q))
            B = BilinearForm(field, gram)
            # the standard Lagrangian span(e_1..e_n), in the new coordinates
            L = Subspace(d, [Qinv[k] for k in range(n)])
            mp = metabolic_path(B, L)
            assert mp.family.at(0).gram == hyperbolic_form(field, n).gram
            f1 = mp.family.at(1)
            P = mp.adapted_basis
            assert (
                linalg.mat_mul(linalg.mat_mul(P, B.gram), linalg.transpose(P))
                == f1.gram
            )
    _pass(14, "metabolic paths: t=0 hyperbolic, t=1 congruent to input, 50x")


def test_criterion_15_elementary_factorization():
    rng = random.Random("shears")

    from gorlab.forms import elementary_factorization

    def check(M):
        factors = elementary_factorization(M)
        prod = linalg.identity(QQ, len(M))
        for F in factors:
            offdiag = [
                (i, j)
                for i in range(len(M))
                for j in range(len(M))
                if i != j and F[i][j]
            ]
            diag_ok = all(F[i][i] == QQ.one for i in range(len(M)))
            assert diag_ok and len(offdiag) == 1
            prod = linalg.mat_mul(F, prod)
        assert prod == linalg.mat(M)

    for _ in range(100):
        M = linalg.identity(QQ, 3)
        for _ in range(rng.randint(2, 8)):
            i, j = rng.randrange(3), rng.randrange(3)
            if i == j:
                continue
            E = [list(r) for r in linalg.identity(QQ, 3)]
            E[i][j] = QQ.scalar(rng.randint(-4, 4))
            M = linalg.mat_mul(E, M)
        check(M)
    cyc = linalg.mat([[QQ.zero, QQ.one, QQ.zero], [QQ.zero, QQ.zero, QQ.one], [QQ.one, QQ.zero, QQ.zero]])
    check(cyc)
    _pass(15, "elementary factorizations reproduce 100 SL3 matrices + the 3-cycle")


def test_criterion_16_gorenstein_decision():
    x, y = poly_ring(QQ, "x", "y")
    A = quotient_algebra([x**2, x * y, y**2])
    rep = gorenstein_test(A)
    assert_not_gorenstein_certificate(A, rep)
    positives = [aq_algebra(QQ, q) for q in (1, 2, 3)]
    positives += [split_algebra(QQ, d).algebra for d in (2, 4, 6)]
    positives += [chain(QQ, n) for n in range(1, 7)]
    for B in positives:
        r = gorenstein_test(B)
        assert r.status == "oriented"
        assert is_nondegenerate(b_phi(B, r.witness))
    _pass(16, "Gorenstein decision: nilradical and socle certificate, and witnesses")


def _ev1(x, field):
    return tpoly_eval(x, field.one) if isinstance(x, TPoly) else x


def test_criterion_17_homotopy_endpoints(corpus_all):
    for t in corpus_all:
        f = t.oa.field
        d1 = t.oa.dim
        hf = homotopy_families(t)
        assert hf.h_const.c == hf.h_mv.c
        assert hf.h_const.orientation == hf.h_mv.orientation
        assert hf.h_const.unit == hf.h_mv.unit
        fib1 = specialize(hf.h_const, 1)
        A1 = fib1.algebra

        def proj1(a_vec, b_vec):
            coords = hf.project(tuple(a_vec) + tuple(b_vec))
            return tuple(_ev1(x, f) for x in coords)

        z4 = (f.zero,) * 4
        e1r = tuple(f.scalar(v) for v in (1, 0, -3, 2))
        e2r = tuple(f.scalar(v) for v in (0, 0, 3, -2))
        n2r = tuple(f.scalar(v) for v in (0, 0, -1, 1))
        iota2 = proj1((f.zero,) * d1, e2r)
        unit1 = A1.unit
        iota1 = tuple(a - b for a, b in zip(unit1, iota2))
        rows = []
        for i in range(d1):
            u = t.algebra.basis_vector(i)
            psi = proj1(u, tuple(x * t.e[i] for x in (f.one, f.zero, f.zero, f.zero)))
            rows.append(multiply(A1, psi, iota1))
        rows.append(iota2)
        rows.append(proj1((f.zero,) * d1, n2r))
        target = direct_product(t.algebra, dual_numbers(f))
        moved = base_change(A1, rows, labels=target.labels)
        assert moved.c == target.c and moved.unit == target.unit
        # sigma+ shape: T's augmentation through the first factor
        aug_c = specialize(hf.h_const, 1).augmentations["aug"]
        vals_c = tuple(linalg.sum_dot(aug_c, r) for r in rows)
        assert vals_c == tuple(t.e) + (f.zero, f.zero)
        # gamma-theta shape: the double point's own augmentation
        aug_m = specialize(hf.h_mv, 1).augmentations["aug"]
        vals_m = tuple(linalg.sum_dot(aug_m, r) for r in rows)
        assert vals_m == (f.zero,) * d1 + (f.one, f.zero)
        # both specializations at 0 coincide
        f0c = specialize(hf.h_const, 0)
        f0m = specialize(hf.h_mv, 0)
        assert f0c.algebra == f0m.algebra
        assert f0c.augmentations["aug"] == f0m.augmentations["aug"]
    _pass(17, "homotopy endpoints match sigma+ / gamma-theta shapes on the corpus")
