"""Seeded corpus of isotropically augmented oriented algebras.

The recipe mirrors the one the test suite uses: a pointed block (a nilpotent
chain k[x]/x^n or a form extension), reduced points and unpointed chains as
fillers, and a random change of basis.  It lives here so that the benchmark
workload cannot change when a test helper does.  Every function takes the
loaded gorlab namespace ``g`` so that a fresh import is used each time.
"""

from __future__ import annotations


def random_nondegenerate_form(g, rng, field, m, bound=3):
    while True:
        gram = [[field.scalar(rng.randint(-bound, bound)) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i):
                gram[i][j] = gram[j][i]
        B = g.forms.BilinearForm(field, gram)
        if g.forms.is_nondegenerate(B):
            return B


def random_invertible(g, rng, field, d, bound=2):
    while True:
        P = [[field.scalar(rng.randint(-bound, bound)) for _ in range(d)] for _ in range(d)]
        try:
            g.linalg.invert(field, P)
        except g.errors.Singular:
            continue
        return g.linalg.mat(P)


def chain_block(g, rng, field, n):
    """k[x]/x^n, a random orientation with unit top coefficient, and the
    augmentation x -> 0 (isotropic for n >= 2)."""
    z = field.zero
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                c[i][j][i + j] = field.one
    labels = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, n)]
    A = g.algebra.FiniteAlgebra(field, labels, c, unit=[1] + [0] * (n - 1), validate=False)
    phi = [field.scalar(rng.randint(-4, 4)) for _ in range(n)]
    while True:
        top = field.scalar(rng.randint(-4, 4))
        if top:
            phi[n - 1] = top
            break
    e = tuple([field.one] + [z] * (n - 1))
    return A, tuple(phi), e


def point_block(g, rng, field):
    """The base field as an algebra, with a random nonzero orientation."""
    A = g.algebra.FiniteAlgebra(field, ["1"], [[[field.one]]], unit=[1], validate=False)
    while True:
        v = field.scalar(rng.randint(-4, 4))
        if v:
            return A, (v,)


def form_block(g, rng, field, m):
    """unitalize(lambda, (V, B, 0)) for a random non-degenerate B on k^m."""
    B = random_nondegenerate_form(g, rng, field, m)
    z = field.zero
    zero_mult = [[[z] * m for _ in range(m)] for _ in range(m)]
    V = g.algebra.FiniteAlgebra(
        field, [f"v{i + 1}" for i in range(m)], zero_mult, None, validate=False
    )
    lam = field.scalar(rng.randint(-3, 3))
    return g.frobenius.unitalize(lam, g.frobenius.NonUnitalOriented(V, B))


def random_augmented(g, rng, field, dim, shape_rng=None):
    """A random isotropically augmented oriented algebra of the given
    dimension (>= 2), in a scrambled basis.

    ``shape_rng`` makes the block structure (which blocks, of which sizes)
    and the change of basis; ``rng`` makes the orientations and forms.  They
    default to the same generator."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    shape_rng = shape_rng or rng
    choices = [("chain", n) for n in range(2, min(4, dim) + 1)]
    choices += [("form", k) for k in range(2, dim + 1)]
    kind, b = shape_rng.choice(choices)
    if kind == "chain":
        A, phi, e = chain_block(g, rng, field, b)
    else:
        t = form_block(g, rng, field, b - 2)
        A, phi, e = t.algebra, t.oa.phi, t.e
    rest = dim - b
    while rest > 0:
        if rest == 1 or shape_rng.random() < 0.5:
            F, fphi = point_block(g, rng, field)
        else:
            n = shape_rng.randint(2, min(4, rest))
            F, fphi, _ = chain_block(g, rng, field, n)
        A = g.algebra.direct_product(A, F)
        phi = tuple(phi) + tuple(fphi)
        e = tuple(e) + (field.zero,) * F.dim
        rest -= F.dim
    P = random_invertible(g, shape_rng, field, dim, bound=2 if dim <= 6 else 1)
    A2 = g.algebra.base_change(A, P)
    phi2 = tuple(g.linalg.sum_dot(row, phi) for row in P)
    e2 = tuple(g.linalg.sum_dot(row, e) for row in P)
    return g.frobenius.Augmented(g.frobenius.OrientedAlgebra(A2, phi2), e2)
