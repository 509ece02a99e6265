"""The table constructors against the boxed loops they replaced.

``base_change``, the connected-sum core (``connected_sum`` and
``homotopy_families``), ``decompose_augmented`` and ``AlgebraFamily.at``
build their tables through ``algebra._table_on_rows`` or on raw slices.  The
reference functions below are the boxed loops: one ``multiply`` or
``table_multiply`` per pair of rows, coordinates through a pivot-inverse row
solver with a reconstruction check, and ``tpoly_eval`` per entry.  Both
sides must return the same entries with the same value types (Fractions
over QQ, ints over F_p), or raise the same exception with the same message:
on corpus samples over QQ and F_7, on random change-of-basis matrices (with
denominators over QQ, and singular ones), and on fibers at t = 0, 1 and
random values.  ``family_socle_generator`` is compared with Cramer's rule.
The connected-sum core works on raw values in closed form: a count of Scalar
and TPoly operators asserts that it runs none.  Its eliminated coordinate,
table and projection are compared with kernel_basis and the one-elimination
``RowSolver`` of ``row_solver.py``, also for a homotopy whose socle
generator is moved off the constants, and the eliminations of each
construction are counted.  Its coordinate map C is compared with one
``split`` and ``reduce`` per basis vector, as the core once built it, also
for left functionals that are not algebra maps, and ``e_right_of`` with
``sum_dot`` on the boxed rows.  A table is specified only on the contract of
``_table_on_rows``, products of the rows inside the space C reads, which
holds when both augmentations are algebra maps: the tables are compared
there, and ``tests/test_trusted_builders.py`` asserts that contract.
"""

from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, frobenius, linalg
from gorlab.algebra import (
    AlgebraFamily,
    FiniteAlgebra,
    Subspace,
    _table_on_rows,
    base_change,
    multiply,
)
from gorlab.errors import Singular
from gorlab.families import (
    family_socle_generator,
    homotopy_families,
    robber_family,
    scale_multiplication_family,
)
from gorlab.forms import BilinearForm, orth_complement
from gorlab.frobenius import (
    NonUnitalOriented,
    OrientedAlgebra,
    _consum_core,
    augmentation_check,
    decompose_augmented,
    isotropy_check,
    rees_family,
    socle_generator,
)
from gorlab.scalar import Scalar, TPoly, as_tpoly

from corpus import build_corpus
from row_solver import RowSolver

FIELDS = (QQ, GF(7))


class RefRowSolver:
    def __init__(self, field, rows):
        self.rows = linalg.mat(rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        red, pivots = linalg.rref(self.rows, self.ncols)
        if len(red) != len(self.rows):
            raise Singular("rows are dependent")
        self.pivots = pivots
        sub = linalg.mat(tuple(row[p] for p in pivots) for row in self.rows)
        self._inv = linalg.invert(field, sub)

    def coords(self, v):
        sel = tuple(v[p] for p in self.pivots)
        c = linalg.vec_mat(sel, self._inv)
        recon = [linalg.sum_dot(c, col) for col in zip(*self.rows)]
        for a, b in zip(recon, v):
            if a != b:
                raise Singular("vector is not in the row space")
        return c


def ref_table_multiply(c, u, v, zero):
    d = len(c)
    out = [zero] * d
    for i, ui in enumerate(u):
        if not ui:
            continue
        plane = c[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            f = ui * vj
            for k, ck in enumerate(plane[j]):
                if ck:
                    out[k] = out[k] + f * ck
    return tuple(out)


def ref_base_change(A, P):
    P = tuple(A.coerce_vector(row) for row in P)
    Pinv = linalg.invert(A.field, P)
    c = [[linalg.vec_mat(multiply(A, P[i], P[j]), Pinv) for j in range(A.dim)]
         for i in range(A.dim)]
    unit = linalg.vec_mat(A.unit, Pinv) if A.unit is not None else None
    return FiniteAlgebra(A.field, [f"b{i}" for i in range(A.dim)], c, unit, validate=False)


def ref_fiber_product(field, unit1, unit2, e1, e2, x1, x2, solver_cls):
    """The connected-sum basis by elimination: kernel_basis for the
    augmentation kernels and a solver for coordinates.  Returns the rows,
    the solver, the kept rows and the reduction by the socle difference."""
    d1, d2 = len(e1), len(e2)
    k1 = linalg.kernel_basis(field, [e1], d1)
    k2 = linalg.kernel_basis(field, [e2], d2)
    z1, z2 = (field.zero,) * d1, (field.zero,) * d2
    rows = [tuple(unit1) + tuple(unit2)]
    rows += [tuple(r) + z2 for r in k1]
    rows += [z1 + tuple(r) for r in k2]
    solver = solver_cls(field, rows)
    w_coords = solver.coords(tuple(x1) + tuple(-x for x in x2))

    def is_const_nonzero(v):
        if isinstance(v, TPoly):
            return v.is_constant() and bool(v)
        return bool(v)

    elim = max((i for i, v in enumerate(w_coords) if is_const_nonzero(v)), default=None)
    if elim is None or elim == 0:
        raise Singular("no constant coordinate available to eliminate")
    w_at = w_coords[elim]
    inv = (w_at.constant_value() if isinstance(w_at, TPoly) else w_at).inverse()
    keep = [i for i in range(len(rows)) if i != elim]

    def reduce(coords):
        factor = coords[elim] * inv
        if factor:
            coords = tuple(a - factor * b for a, b in zip(coords, w_coords))
        return tuple(coords[i] for i in keep)

    return rows, solver, keep, reduce


def ref_consum_core(field, A1, unit1, A2, unit2, e1, e2, x1, x2, phi1, phi2, zero):
    c1, c2 = A1.c, A2.c
    d1 = len(c1)
    rows, solver, keep, reduce = ref_fiber_product(field, unit1, unit2, e1, e2, x1, x2,
                                                   RefRowSolver)

    def product(u, v):
        return ref_table_multiply(c1, u[:d1], v[:d1], zero) + ref_table_multiply(
            c2, u[d1:], v[d1:], zero
        )

    n = len(keep)
    c = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            red = reduce(solver.coords(product(rows[keep[a]], rows[keep[b]])))
            c[a][b] = red
            c[b][a] = red
    phi = tuple(
        linalg.sum_dot(phi1, rows[i][:d1]) + linalg.sum_dot(phi2, rows[i][d1:]) for i in keep
    )
    if linalg.sum_dot(phi1, x1) != linalg.sum_dot(phi2, x2):
        raise Singular("orientation does not descend to the connected sum")
    e_left = tuple(linalg.sum_dot(e1, rows[i][:d1]) for i in keep)
    unit = tuple(field.one if i == 0 else field.zero for i in range(n))
    return tuple(map(tuple, c)), unit, phi, e_left


def ref_decompose(oa, e):
    A = oa.algebra
    e = A.coerce_vector(e)
    f = oa.field
    x = socle_generator(oa, e)
    lam = oa.phi_of(A.unit)
    vrows = orth_complement(oa.form, Subspace(A.dim, [A.unit, x])).rows
    m = len(vrows)
    small = ((lam, f.one), (f.one, f.zero))
    solver = RefRowSolver(f, vrows) if m else None
    cV = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            w = multiply(A, vrows[i], vrows[j])
            rhs = (oa.form.apply(w, A.unit), oa.form.apply(w, x))
            ab = linalg.solve_right(f, small, rhs)
            proj = tuple(wc - ab[0] * uc - ab[1] * xc for wc, uc, xc in zip(w, A.unit, x))
            cV[i][j] = cV[j][i] = solver.coords(proj)
    gramV = linalg.mat_mul(linalg.mat_mul(vrows, oa.form.gram), linalg.transpose(vrows))
    alg = FiniteAlgebra(f, [f"v{i + 1}" for i in range(m)], cV if m else [], None)
    return lam, NonUnitalOriented(alg, BilinearForm(f, gramV)), linalg.mat([A.unit, x] + list(vrows))


def ref_at(F, value):
    value = F.field.scalar(value)
    c = [[[x(value) for x in row] for row in plane] for plane in F.c]
    unit = [x(value) for x in F.unit] if F.unit is not None else None
    return FiniteAlgebra(F.field, F.labels, c, unit, validate=False)


def ref_socle_generator(F, aug):
    gram = [list(r) for r in F.gram()]
    e = F.augmentations[aug]
    zero, one = TPoly(F.field), TPoly.const(F.field.one)

    def bdet(m):
        return linalg.det_in_domain(zero, one, m)

    D = bdet(gram)
    if not D or not D.is_constant():
        raise Singular("family Gram determinant is not a unit")
    dinv = D.constant_value().inverse()
    d = F.dim
    return tuple(
        bdet([[e[r] if c == i else gram[r][c] for c in range(d)] for r in range(d)]) * dinv
        for i in range(d)
    )


def exact(x):
    """Scalars and TPolys with the types of their raw values, for comparison."""
    if isinstance(x, Scalar):
        return type(x.value), x.value
    if isinstance(x, TPoly):
        return tuple(exact(a) for a in x.coeffs)
    if isinstance(x, (tuple, list)):
        return tuple(exact(y) for y in x)
    return x


def outcome(fn, *args):
    """exact(fn(*args)), or the type and message of what it raised."""
    try:
        return exact(fn(*args))
    except Exception as ex:  # noqa: BLE001 - any difference is a failure
        return type(ex), str(ex)


@lru_cache(maxsize=None)
def corpus(field):
    return build_corpus(field, 10, seed=1)


@lru_cache(maxsize=None)
def homotopies(field):
    return [homotopy_families(t) for t in corpus(field)[:6]]


@st.composite
def scalars(draw, field):
    if field.characteristic == 0 and draw(st.booleans()):
        return field.scalar(Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from((2, 3, 7, 10007)))))
    return field.scalar(draw(st.integers(-3, 3)))


def core_args(t1, e1, x2, A2, unit2, e2, phi2, zero):
    return (t1.oa.field, t1.algebra, t1.algebra.unit, A2, unit2, e1, e2,
            socle_generator(t1.oa, t1.e), x2, t1.oa.phi, phi2, zero)


def perturbed_augmentation(data, t):
    """t.e, or in about one draw in two a nearby functional that is not an
    algebra map, so that the fiber product is no subalgebra: moved in one
    coordinate, or along a functional that vanishes on the unit and on the
    socle generator (the difference of socle generators then stays in the
    fiber product, and only the products leave it)."""
    mode = data.draw(st.integers(0, 3))
    e = list(t.e)
    if mode == 1:
        k = data.draw(st.integers(1, len(e) - 1))
        e[k] = e[k] + data.draw(scalars(t.oa.field))
    elif mode == 2:
        x = socle_generator(t.oa, t.e)
        moves = linalg.kernel_basis(t.oa.field, [x, t.algebra.unit], len(e))
        if moves:
            move, delta = data.draw(st.sampled_from(moves)), data.draw(scalars(t.oa.field))
            e = [a + delta * b for a, b in zip(e, move)]
    return tuple(e)


def core_table(*args):
    # the reference takes the ring's zero; the core's planes are boxed by the
    # table class of that ring
    *args, zero = args
    data = _consum_core(*args)
    cls = AlgebraFamily if isinstance(zero, TPoly) else FiniteAlgebra
    c = cls.on_read(*data.read, args[0], data.labels, validate=False).c
    return c, data.unit, data.phi, data.e_left


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_connected_sum_core_matches_boxed_loops(data):
    field = data.draw(st.sampled_from(FIELDS))
    t1, t2 = data.draw(st.sampled_from(corpus(field))), data.draw(st.sampled_from(corpus(field)))
    args = core_args(t1, t1.e, socle_generator(t2.oa, t2.e), t2.algebra, t2.algebra.unit,
                     t2.e, t2.oa.phi, field.zero)
    assert outcome(core_table, *args) == outcome(ref_consum_core, *args)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_homotopy_core_matches_boxed_loops(data):
    # the arguments homotopy_families passes: the robber family on the right
    field = data.draw(st.sampled_from(FIELDS))
    t = data.draw(st.sampled_from(corpus(field)[:6]))
    rob = robber_family(field)
    const = tuple(u.constant_value() for u in rob.augmentations["const"])
    args = core_args(t, t.e, family_socle_generator(rob, "const"),
                     rob, tuple(u.constant_value() for u in rob.unit), const,
                     rob.orientation, TPoly(field))
    assert outcome(core_table, *args) == outcome(ref_consum_core, *args)


def ref_consum_map(field, A1, unit1, A2, unit2, e1, e2, x1, x2, phi1, phi2):
    """The rows and the map C of the connected-sum core, C as one split and
    reduce per basis vector e_j of k^(d1 + d2): the coordinates of e_j in the
    fiber-product basis, the socle difference w then eliminated one vector
    at a time."""
    d1, d2 = A1.dim, A2.dim
    piv1, piv2 = ([c for c in range(len(e)) if c != max(c for c, x in enumerate(e) if x)]
                  for e in (e1, e2))

    def split(v):
        a, b = v[:d1], v[d1:]
        c0 = linalg.sum_dot(e1, a)
        coords = (c0, *(a[c] - c0 * unit1[c] for c in piv1),
                  *(b[c] - c0 * unit2[c] for c in piv2))
        return coords, c0 - linalg.sum_dot(e2, b)

    w_coords, check = split(tuple(x1) + tuple(-x for x in x2))
    if check:
        raise Singular("vector is not in the row space")

    def is_const_nonzero(v):
        if isinstance(v, TPoly):
            return v.is_constant() and bool(v)
        return bool(v)

    elim = max((i for i, v in enumerate(w_coords) if is_const_nonzero(v)), default=None)
    if elim is None or elim == 0:
        raise Singular("no constant coordinate available to eliminate")
    w_at = w_coords[elim]
    inv = (w_at.constant_value() if isinstance(w_at, TPoly) else w_at).inverse()
    keep = [i for i in range(len(w_coords)) if i != elim]

    def reduce(coords):
        factor = coords[elim] * inv
        if factor:
            coords = tuple(a - factor * b for a, b in zip(coords, w_coords))
        return tuple(coords[i] for i in keep)

    return [reduce(coords) for coords, _ in map(split, linalg.identity(field, d1 + d2))]


def raw_values(p, slices, scale):
    """The nonzero entries of a raw slice list over ``scale``, by (power,
    row, column): ints mod p, or the Fractions they stand for at p = 0."""
    return {(s, i, j): x if p else Fraction(x, scale)
            for s, X in slices for i, row in enumerate(X) for j, x in enumerate(row) if x}


def core_map(*args):
    """The values of the raw map C that _consum_core hands to _table_on_rows."""
    class Handed(Exception):
        pass

    def stop(field, tables, R, L_R, C, L_C):
        raise Handed(C, L_C)

    with mock.patch.object(frobenius, "_table_on_rows", stop):
        try:
            _consum_core(*args)
        except Handed as handed:
            return raw_values(args[0].characteristic, *handed.args)


def ref_map_values(*args):
    p = args[0].characteristic
    (C,), L = linalg.raw_slices([ref_consum_map(*args)], p)
    return raw_values(p, C, L)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_core_map_matches_split_and_reduce(data):
    # corpus pairs and the robber on the right (x2 and w in k[t]) over QQ and
    # F_7, with perturbed left augmentations: the same values of C, or the
    # same exception
    field = data.draw(st.sampled_from(FIELDS))
    *args, _ = core_args_drawn(data, field)
    assert outcome(core_map, *args) == outcome(ref_map_values, *args)


def row_solver_core(field, A1, unit1, A2, unit2, e1, e2, x1, x2, phi1, phi2):
    """The core's labels (they name the eliminated coordinate), boxed table
    and projection as they were built on the C of a RowSolver's map [C | N]."""
    rows, solver, keep, reduce = ref_fiber_product(field, unit1, unit2, e1, e2, x1, x2,
                                                   RowSolver)
    C = [reduce(row[:-1]) for row in solver.map]
    [[(_, R)], C], L = linalg.raw_slices([[rows[i] for i in keep], C], field.characteristic)
    read = _table_on_rows(field, [A1, A2], R, L, C, L)
    cls = AlgebraFamily if isinstance(A2, AlgebraFamily) else FiniteAlgebra
    labels = ["1", *(f"a{i + 1}" for i in range(A1.dim - 1)),
              *(f"b{i + 1}" for i in range(A2.dim - 1))]
    labels = tuple(labels[i] for i in keep)
    return labels, cls.on_read(*read, field, labels, validate=False).c, \
        lambda v: reduce(solver.coords(v))


def core_args_drawn(data, field):
    """The arguments of a connected sum of two corpus samples, or of a
    homotopy (the robber family on the right, its socle generator at times
    moved off the constants), with a perturbed left augmentation, and the
    right factor's zero."""
    t1 = data.draw(st.sampled_from(corpus(field)))
    e1 = perturbed_augmentation(data, t1)
    if data.draw(st.booleans()):
        t2 = data.draw(st.sampled_from(corpus(field)))
        return core_args(t1, e1, socle_generator(t2.oa, t2.e), t2.algebra, t2.algebra.unit,
                         t2.e, t2.oa.phi, field.zero)
    rob = robber_family(field)
    const = tuple(u.constant_value() for u in rob.augmentations["const"])
    x2 = family_socle_generator(rob, "const")
    if data.draw(st.booleans()):
        # moved by c·t^k in ker e2 at the last column, so that w's last
        # coordinate, constant for the socle generator, is not, and the
        # eliminated coordinate is an earlier one
        c = data.draw(scalars(field).filter(bool))
        x2 = (*x2[:3], x2[3] + c * TPoly.t(field) ** data.draw(st.integers(1, 2)))
    return core_args(t1, e1, x2, rob, tuple(u.constant_value() for u in rob.unit), const,
                     rob.orientation, TPoly(field))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_core_coordinates_match_the_row_solver(data):
    # the closed-form kernels and coordinates against kernel_basis and one
    # elimination: the same eliminated coordinate, table and projection, or
    # the same exception; projected vectors lie in the fiber product or off
    # it, with polynomial entries on the right of a homotopy.  The table is
    # compared on the contract, a left augmentation that is an algebra map
    field = data.draw(st.sampled_from(FIELDS))
    *args, zero = core_args_drawn(data, field)
    contract = augmentation_check(args[1], args[5])

    def core(*args):
        out = _consum_core(*args)
        cls = AlgebraFamily if isinstance(zero, TPoly) else FiniteAlgebra
        return out.labels, cls.on_read(*out.read, field, out.labels, validate=False).c, \
            out.project

    new, ref = outcome(core, *args), outcome(row_solver_core, *args)
    if len(ref) < 3:  # raised
        assert new == ref
        return
    assert new[0] == ref[0] and (new[1] == ref[1] or not contract)
    d1, (e1, e2), unit2 = args[1].dim, args[5:7], args[4]
    right = scalars(field) if not isinstance(zero, TPoly) else st.builds(
        lambda cs: TPoly(field, cs), st.lists(scalars(field), max_size=3))
    for _ in range(3):
        a = [data.draw(scalars(field)) for _ in range(d1)]
        b = [data.draw(right) for _ in e2]
        if data.draw(st.integers(0, 3)):  # into the fiber product: e2(b) = e1(a)
            delta = linalg.sum_dot(e1, a) - linalg.sum_dot(e2, b)
            b = [x + delta * u for x, u in zip(b, unit2)]

        def coords(project):
            return tuple(as_tpoly(x, field) for x in project(tuple(a) + tuple(b)))

        assert outcome(coords, new[2]) == outcome(coords, ref[2])


def test_core_project_membership_and_tpoly_rhs():
    # project gives coordinates in the connected sum: the joint unit is its
    # unit and the two socle generators meet; a vector off the fiber
    # product raises Singular, and TPoly right-hand sides are linear in t
    t1, t2 = corpus(QQ)[2:4]
    x1, x2 = socle_generator(t1.oa, t1.e), socle_generator(t2.oa, t2.e)
    *args, _ = core_args(t1, t1.e, x2, t2.algebra, t2.algebra.unit, t2.e, t2.oa.phi, QQ.zero)
    data = _consum_core(*args)
    z1, z2 = (QQ.zero,) * t1.algebra.dim, (QQ.zero,) * t2.algebra.dim
    assert data.project(t1.algebra.unit + t2.algebra.unit) == data.unit
    assert data.project(x1 + z2) == data.project(z1 + x2)
    assert any(data.project(x1 + z2))
    with pytest.raises(Singular, match="^vector is not in the row space$"):
        data.project(t1.algebra.unit + z2)
    t = TPoly.t(QQ)
    both = data.project(tuple(t * x for x in x1) + tuple(t * t * x for x in x2))
    assert both == tuple((t + t * t) * c for c in data.project(x1 + z2))
    with pytest.raises(Singular, match="^vector is not in the row space$"):
        data.project(tuple(t * u for u in t1.algebra.unit) + z2)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__")


def count_boxed_arithmetic(fn, *args):
    """fn(*args), and how many Scalar and TPoly operators +, -, * and / ran."""
    calls = [0]

    def counted(real):
        def op(*a):
            calls[0] += 1
            return real(*a)
        return op

    patches = [mock.patch.object(cls, name, counted(getattr(cls, name)))
               for cls in (Scalar, TPoly) for name in ARITHMETIC if hasattr(cls, name)]
    for patch in patches:
        patch.start()
    try:
        assert QQ.one + QQ.one and calls == [1]  # the count sees an operator
        calls[0] = 0
        out = fn(*args)
    finally:
        for patch in patches:
            patch.stop()
    return out, calls[0]


def test_core_runs_no_boxed_arithmetic():
    # the core reads its inputs once and boxes its outputs once: no Scalar or
    # TPoly operator runs while it builds a connected sum of corpus samples or
    # a homotopy (the robber on the right), with e_right_of on the right
    # factor's augmentation, over QQ and F_7
    for field in FIELDS:
        t1, t2 = corpus(field)[2:4]
        rob = robber_family(field)
        const = tuple(u.constant_value() for u in rob.augmentations["const"])
        cases = [
            (core_args(t1, t1.e, socle_generator(t2.oa, t2.e), t2.algebra, t2.algebra.unit,
                       t2.e, t2.oa.phi, field.zero), t2.e),
            (core_args(t1, t1.e, family_socle_generator(rob, "const"), rob,
                       tuple(u.constant_value() for u in rob.unit), const, rob.orientation,
                       TPoly(field)), rob.augmentations["mv"]),
        ]
        for (*args, zero), psi in cases:
            def core(*args):
                data = _consum_core(*args)
                return data, data.e_right_of(psi)

            (data, right), count = count_boxed_arithmetic(core, *args)
            assert count == 0
            assert {type(x) for x in data.phi + right} == {type(zero)}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_core_right_functionals_match_the_boxed_dot(data):
    # e_right_of(psi) is psi on the right half of each kept row, as the core
    # took it by sum_dot on boxed rows: the same values and types, for the
    # robber's "mv" and for drawn functionals of Scalars or TPolys
    field = data.draw(st.sampled_from(FIELDS))
    *args, zero = core_args_drawn(data, field)
    field, A1, unit1, A2, unit2, e1, e2, x1, x2 = args[:9]
    try:
        rows, _, keep, _ = ref_fiber_product(field, unit1, unit2, e1, e2, x1, x2, RowSolver)
    except Singular:
        return
    d1, d2 = A1.dim, A2.dim
    right = scalars(field) if data.draw(st.booleans()) else st.builds(
        lambda cs: TPoly(field, cs), st.lists(scalars(field), max_size=3))
    psis = [tuple(data.draw(right) for _ in range(d2))]
    if isinstance(zero, TPoly):
        psis.append(A2.augmentations["mv"])
    out = _consum_core(*args)
    for psi in psis:
        ref = tuple(linalg.sum_dot(psi, rows[i][d1:]) for i in keep)
        assert exact(out.e_right_of(psi)) == exact(ref)


def test_eliminations_per_construction():
    # raw_rref calls, which every elimination makes: the connected-sum core
    # reads its coordinates in closed form; a homotopy solves only for the
    # input's socle generator; decompose_augmented eliminates for the socle
    # generator and V (raw_kernel takes one), and not for coordinates in V
    calls, real = [0], linalg.raw_rref

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    def count(fn, *args):
        calls[0] = 0
        with mock.patch.object(linalg, "raw_rref", counting):
            fn(*args)
        return calls[0]

    for field in FIELDS:
        t1, t2 = corpus(field)[2:4]
        assert (t1.algebra.dim, t2.algebra.dim) == (4, 5)
        x1, x2 = socle_generator(t1.oa, t1.e), socle_generator(t2.oa, t2.e)
        *args, _ = core_args(t1, t1.e, x2, t2.algebra, t2.algebra.unit, t2.e, t2.oa.phi,
                             field.zero)
        assert count(_consum_core, *args) == 0
        assert [count(homotopy_families, t) for t in (t1, t2)] == [1, 1]
        assert [count(decompose_augmented, t.oa, t.e) for t in (t1, t2)] == [2, 2]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_decompose_matches_boxed_loops(data):
    field = data.draw(st.sampled_from(FIELDS))
    t = data.draw(st.sampled_from(corpus(field)))
    assert isotropy_check(t.oa, t.e)
    dec = decompose_augmented(t.oa, t.e)
    lam, nu, adapted = ref_decompose(t.oa, t.e)
    assert exact(dec.lam) == exact(lam) and exact(dec.adapted_basis) == exact(adapted)
    assert exact(dec.nonunital.algebra.c) == exact(nu.algebra.c)
    assert exact(dec.nonunital.form.gram) == exact(nu.form.gram)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.data())
def test_base_change_matches_boxed_loops(data):
    field = data.draw(st.sampled_from(FIELDS))
    A = data.draw(st.sampled_from(corpus(field))).algebra
    # mostly invertible: a perturbed identity; sometimes any matrix
    dense = data.draw(st.integers(0, 3)) == 0
    P = [[data.draw(scalars(field)) if dense or i != j else field.one for j in range(A.dim)]
         for i in range(A.dim)]
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.integers(0, A.dim - 1)), data.draw(st.integers(0, A.dim - 1))
        P[i][j] = P[i][j] + data.draw(scalars(field))

    def both(fn):
        B = fn(A, P)
        return B.labels, B.c, B.unit

    assert outcome(both, base_change) == outcome(both, ref_base_change)


@lru_cache(maxsize=None)
def families(field):
    out = [h for hf in homotopies(field) for h in (hf.h_const, hf.h_mv)]
    for t in corpus(field)[:4]:
        lam = t.oa.phi_of(t.algebra.unit)
        phi0 = [a - lam * b for a, b in zip(t.oa.phi, t.e)]
        out.append(rees_family(OrientedAlgebra(t.algebra, phi0)).family)
        out.append(scale_multiplication_family(decompose_augmented(t.oa, t.e).nonunital))
    return out + [robber_family(field)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_fibers_match_entrywise_evaluation(data):
    field = data.draw(st.sampled_from(FIELDS))
    F = data.draw(st.sampled_from(families(field)))
    value = data.draw(st.one_of(st.sampled_from((0, 1)), scalars(field)))
    B, ref = F.at(value, validate=False), ref_at(F, value)
    assert exact((B.labels, B.c, B.unit)) == exact((ref.labels, ref.c, ref.unit))


def test_socle_generator_matches_cramer():
    for field in (QQ, GF(2), GF(7)):
        fams = [robber_family(field)]
        if field.characteristic != 2:
            fams += [hf.h_const for hf in homotopies(field)]
        for F in fams:
            gram = F.gram()
            for aug in ("const", "mv"):
                x = family_socle_generator(F, aug)
                assert exact(x) == exact(ref_socle_generator(F, aug))
                # B(x, e_i) = e(e_i) as an identity in k[t]
                assert linalg.mat_vec(gram, x) == F.augmentations[aug]


def test_socle_generator_needs_a_unit_determinant():
    rob = robber_family(QQ)
    t = TPoly.t(QQ)
    for scale in (t, TPoly(QQ)):
        bad = type(rob)(QQ, rob.labels, rob.c, rob.unit, [scale * x for x in rob.orientation],
                        rob.augmentations, validate=False)
        assert outcome(family_socle_generator, bad, "const") == outcome(
            ref_socle_generator, bad, "const"
        ) == (Singular, "family Gram determinant is not a unit")
