"""The coordinate map of a row basis by one elimination, as a reference.

The library reads coordinates off bases it builds in closed form (the
fiber-product basis of ``frobenius._consum_core``, V's RREF rows in
``decompose_augmented``); the tests compare those maps, and the tables
built on them, with this solver.
"""

from gorlab.errors import Singular
from gorlab.linalg import identity, mat, rref, sum_dot, transpose
from gorlab.scalar import Field


class RowSolver:
    """Coordinates with respect to a fixed full-rank row basis Q of k^D.

    One elimination: the RREF of [Q^T | I] is [[I; 0] | T], T·Q^T = [I; 0],
    and ``map`` is the D x D matrix [C | N] = T^T.  A vector v lies in the
    row space iff v·N = 0, and then v·C are its coordinates.  The basis must
    have field entries; v may have TPoly entries (constant matrix,
    polynomial right-hand side).
    """

    def __init__(self, field: Field, rows):
        self.rows = mat(rows)
        m = len(self.rows)
        ncols = len(self.rows[0]) if self.rows else 0
        aug = [list(col) + list(e) for col, e in zip(zip(*self.rows), identity(field, ncols))]
        red, pivots = rref(aug)
        if sum(c < m for c in pivots) < m:
            raise Singular("rows are dependent")
        self.map = transpose([row[m:] for row in red])

    def coords(self, v):
        m = len(self.rows)
        out = tuple(sum_dot(v, col) for col in zip(*self.map))
        if any(out[m:]):
            raise Singular("vector is not in the row space")
        return out[:m]
