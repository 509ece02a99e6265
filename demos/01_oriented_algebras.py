"""Oriented Gorenstein algebras from quotient presentations.

An orientation of a finite algebra A is a functional phi making the pairing
B_phi(a, b) = phi(ab) non-degenerate.  This walk-through builds a few
algebras exactly (no floating point anywhere), orients them, and runs the
Gorenstein decision procedure, whose "no" is certified by the nilradical
and the socle.
"""

from gorlab import QQ, GF, poly_ring, quotient_algebra
from gorlab.frobenius import OrientedAlgebra, b_phi, gorenstein_test

# --- the double point: QQ[x]/x^2 ------------------------------------------
x, = poly_ring(QQ, "x")
dual = quotient_algebra([x**2])
print("dual numbers:", dual.labels, "dim", dual.dim)

# phi_0 extracts the x-coefficient; its Gram matrix is the hyperbolic plane
B = b_phi(dual, [0, 1])
print("B_phi0 =", [[str(v) for v in row] for row in B.gram])

# the coefficient-of-1 functional is NOT an orientation
B_bad = b_phi(dual, [1, 0])
print("B for phi = 1*:", [[str(v) for v in row] for row in B_bad.gram], "(degenerate)")

# --- the G-fat point A_2 ----------------------------------------------------
y1, y2 = poly_ring(QQ, "y1", "y2")
a2 = quotient_algebra([y1 * y2, y1**2 - y2**2, y1**3])
print("\nA_2 basis:", a2.labels)
report = gorenstein_test(a2, seed=0)
print("gorenstein_test:", report.status, "witness:",
      {l: str(v) for l, v in zip(a2.labels, report.witness)})
oa = OrientedAlgebra(a2, report.witness)
print("pairing is non-degenerate by construction; phi(y1^2) =", oa.phi[3])

# --- a negative certificate -------------------------------------------------
u, v = poly_ring(QQ, "u", "v")
fat = quotient_algebra([u**2, u * v, v**2])
report = gorenstein_test(fat)
print("\nQQ[u,v]/(u^2, uv, v^2):", report.status, "after", report.trials, "trials")
# A is Gorenstein iff dim Soc = dim A - dim J; here J = Soc = (u, v): 2 > 3 - 2
for name, space in (("nilradical J", report.nilradical), ("socle Ann(J)", report.socle)):
    print(f"{name}:", [{l: str(v) for l, v in zip(fat.labels, row)} for row in space.rows])

# --- everything works over prime fields too ---------------------------------
z, = poly_ring(GF(7), "z")
c7 = quotient_algebra([z**4])
report = gorenstein_test(c7, seed=1)
print("\nF7[z]/z^4:", report.status,
      "witness:", {l: str(v) for l, v in zip(c7.labels, report.witness)})
