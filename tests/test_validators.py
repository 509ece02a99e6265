"""The structure-table validators against the triple loops they replaced.

``validate_structure`` and ``NonUnitalOriented`` decide associativity, the
unit law and the compatibility of a pairing through products of the
multiplication matrices c[i], read into raw coefficient slices.  The
reference functions below are the direct loops over basis triples.  On
perturbed corpus and quotient-algebra tables over QQ and F_7 and on
perturbed homotopy and Rees families over k[t], both sides must raise the
same exception with the same message, or both accept.  The perturbations
reach t-degree 5; over QQ they include multiples of 7 and fractions over
large coprime denominators (both invisible to a check mod a small prime),
and units with denominators; tables of dimension 0 and 1 are included.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from gorlab import GF, QQ, poly_ring, quotient_algebra
from gorlab.algebra import FiniteAlgebra, base_change, multiply, validate_structure
from gorlab.errors import BadUnit, Degenerate, DimensionMismatch, NotAssociative, NotCommutative
from gorlab.families import homotopy_families
from gorlab.forms import BilinearForm, is_nondegenerate
from gorlab.frobenius import NonUnitalOriented, OrientedAlgebra, decompose_augmented, rees_family
from gorlab.scalar import TPoly
from gorlab.tensors import aq_algebra, strassen_commuting, structure_tensor

from corpus import build_corpus


def ref_validate_structure(c, unit, zero):
    d = len(c)
    for i in range(d):
        for j in range(i + 1, d):
            if c[i][j] != c[j][i]:
                raise NotCommutative(f"e{i}*e{j} != e{j}*e{i}")
    for i in range(d):
        for k in range(i, d):
            for j in range(d):
                row_ij = c[i][j]
                row_jk = c[j][k]
                for l in range(d):
                    lhs = zero
                    for m in range(d):
                        x = row_ij[m]
                        if x:
                            y = c[m][k][l]
                            if y:
                                lhs = lhs + x * y
                    rhs = zero
                    for m in range(d):
                        x = row_jk[m]
                        if x:
                            y = c[i][m][l]
                            if y:
                                rhs = rhs + x * y
                    if lhs != rhs:
                        raise NotAssociative(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")
    if unit is not None:
        for i in range(d):
            for l in range(d):
                acc = zero
                for m in range(d):
                    if unit[m] and c[m][i][l]:
                        acc = acc + unit[m] * c[m][i][l]
                want = 1 if l == i else 0
                if acc != want:
                    raise BadUnit(f"unit*e{i} has wrong e{l}-component")


def ref_nonunital(A, B):
    if A.is_unital:
        raise BadUnit("expected a non-unital algebra")
    if A.dim != B.dim or A.field != B.field:
        raise DimensionMismatch("algebra and form do not match")
    if not is_nondegenerate(B):
        raise Degenerate("pairing is degenerate")
    for i in range(A.dim):
        ei = A.basis_vector(i)
        for j in range(A.dim):
            ej = A.basis_vector(j)
            for k in range(j, A.dim):
                ek = A.basis_vector(k)
                lhs = B.apply(multiply(A, ei, ej), ek)
                rhs = B.apply(ei, multiply(A, ej, ek))
                if lhs != rhs:
                    raise Degenerate(
                        f"pairing is not multiplication-compatible at ({i},{j},{k})"
                    )


def outcome(fn, *args):
    """None when fn accepts, else the exception's type and message."""
    try:
        fn(*args)
    except Exception as ex:  # noqa: BLE001 - any difference is a failure
        return type(ex), str(ex)
    return None


@lru_cache(maxsize=None)
def corpus(field):
    return build_corpus(field, 12, seed=0)


@lru_cache(maxsize=None)
def family_tables(field):
    """(c, unit) over k[t]: h_const for the corpus samples of dimension 2, 3
    and 4; the Rees families of the samples of dimension 2 to 5 with the
    orientation moved to phi - phi(1) e; and tables of dimension 0 and 1."""
    out = [
        (hf.h_const.c, hf.h_const.unit)
        for hf in (homotopy_families(t) for t in corpus(field)[:3])
    ]
    for t in corpus(field)[:4]:
        lam = t.oa.phi_of(t.algebra.unit)
        phi0 = [a - lam * b for a, b in zip(t.oa.phi, t.e)]
        fam = rees_family(OrientedAlgebra(t.algebra, phi0)).family
        out.append((fam.c, fam.unit))
    one = TPoly.const(field.one)
    return out + [((), ()), ((((one,),),), (one,)), ((((TPoly(field),),),), None)]


@lru_cache(maxsize=None)
def quotient_tables(field):
    x, y = poly_ring(field, "x", "y")
    algebras = [aq_algebra(field, q) for q in (1, 2, 3)]
    algebras += [
        quotient_algebra([x**4, y]),
        quotient_algebra([x**2, y**2]),
        quotient_algebra([x**3, x * y, y**2]),
    ]
    return algebras


@lru_cache(maxsize=None)
def edge_tables(field):
    """Over QQ, the quotient algebras in the basis 2 e_0, 3 e_1, 5 e_2, ...,
    so that the unit has denominators; over both fields, dimensions 0 and 1."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    scaled = [
        base_change(A, [[primes[i] if i == j else 0 for j in range(A.dim)] for i in range(A.dim)])
        for A in quotient_tables(field)
        if field.characteristic == 0
    ]
    return scaled + [
        FiniteAlgebra(field, [], (), unit=()),
        FiniteAlgebra(field, ["1"], [[[1]]], unit=[1]),
        FiniteAlgebra(field, ["x"], [[[0]]]),
    ]


FIELDS = (QQ, GF(7))
BIG_PRIMES = (10007, 65537, 2**31 - 1)


@st.composite
def scalars(draw, field, nonzero=False):
    if field.characteristic == 0 and draw(st.integers(0, 3)) == 0:
        # zero mod 7, or over a large denominator: exact comparisons only
        if draw(st.booleans()):
            return field.scalar(7 * draw(st.sampled_from((-2, -1, 1, 3))))
        return field.scalar(Fraction(draw(st.integers(1, 5)), draw(st.sampled_from(BIG_PRIMES))))
    v = draw(st.integers(-3, 3).filter(lambda v: not nonzero or v % 7))
    return field.scalar(v)


@st.composite
def moves(draw, d, delta, start=0, always_mirrored=False):
    """Up to three additions of `delta` values to entries c[i][j][k] with
    i, j >= start.  Most are mirrored onto c[j][i][k], so that the table
    stays commutative and the later checks are reached."""
    out = []
    if d <= start:
        return out
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(start, d - 1))
        j = draw(st.integers(start, d - 1))
        k = draw(st.integers(0, d - 1))
        mirrored = always_mirrored or draw(st.integers(0, 3)) > 0
        out.append((i, j, k, draw(delta), mirrored))
    return out


def perturbed(c, moves_):
    c = [[list(row) for row in plane] for plane in c]
    for i, j, k, delta, mirrored in moves_:
        c[i][j][k] = c[i][j][k] + delta
        if mirrored and i != j:
            c[j][i][k] = c[j][i][k] + delta
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def perturbed_unit(data, unit, delta):
    """The unit, with one entry moved in about one draw in three."""
    if not unit or data.draw(st.integers(0, 2)):
        return unit
    unit = list(unit)
    m = data.draw(st.integers(0, len(unit) - 1))
    unit[m] = unit[m] + data.draw(delta)
    return tuple(unit)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_validate_structure_matches_triple_loops(data):
    field = data.draw(st.sampled_from(FIELDS))
    pool = [t.algebra for t in corpus(field)] + quotient_tables(field) + edge_tables(field)
    A = data.draw(st.sampled_from(pool))
    delta = scalars(field, nonzero=True)
    c = perturbed(A.c, data.draw(moves(A.dim, delta)))
    unit = perturbed_unit(data, A.unit, delta)
    got = outcome(validate_structure, c, unit, field.zero)
    assert got == outcome(ref_validate_structure, c, unit, field.zero)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_family_validation_matches_triple_loops(data):
    field = data.draw(st.sampled_from(FIELDS))
    c, unit = data.draw(st.sampled_from(family_tables(field)))

    @st.composite
    def tpolys(draw):
        # degree <= 5; a move with no constant term is invisible at t = 0
        top = draw(st.integers(0, 5))
        low = draw(st.integers(0, top))
        coeffs = [field.zero] * low + [draw(scalars(field)) for _ in range(low, top + 1)]
        coeffs[draw(st.integers(low, top))] = draw(scalars(field, nonzero=True))
        return TPoly(field, coeffs)

    c = perturbed(c, data.draw(moves(len(c), tpolys())))
    unit = perturbed_unit(data, unit, tpolys())
    zero = TPoly(field)
    got = outcome(validate_structure, c, unit, zero)
    assert got == outcome(ref_validate_structure, c, unit, zero)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_nonunital_matches_triple_loop(data):
    field = data.draw(st.sampled_from(FIELDS))
    t = data.draw(st.sampled_from(corpus(field)))
    nu = decompose_augmented(t.oa, t.e).nonunital
    m = nu.dim
    delta = scalars(field, nonzero=True)
    c = perturbed(nu.algebra.c, data.draw(moves(m, delta)))
    gram = [list(row) for row in nu.form.gram]
    for i, j, _, dv, _ in data.draw(moves(m, delta)):
        gram[i][j] = gram[i][j] + dv
        if i != j:
            gram[j][i] = gram[j][i] + dv
    A = FiniteAlgebra(field, nu.algebra.labels, c, None, validate=False)
    B = BilinearForm(field, gram)
    assert outcome(NonUnitalOriented, A, B) == outcome(ref_nonunital, A, B)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_strassen_commuting_iff_associative(data):
    # off the unit row the table stays commutative and unital, and the unit
    # slice stays the identity, so the normalized slices are the c[i]
    field = data.draw(st.sampled_from(FIELDS))
    A = data.draw(st.sampled_from(quotient_tables(field)))
    assert A.unit == A.basis_vector(0)
    delta = scalars(field, nonzero=True)
    c = perturbed(A.c, data.draw(moves(A.dim, delta, start=1, always_mirrored=True)))
    P = FiniteAlgebra(field, A.labels, c, A.unit, validate=False)
    got = outcome(validate_structure, c, A.unit, field.zero)
    assert got == outcome(ref_validate_structure, c, A.unit, field.zero)
    assert got is None or got[0] is NotAssociative
    assert strassen_commuting(structure_tensor(P), P.unit) == (got is None)
