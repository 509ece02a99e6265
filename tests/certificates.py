"""Independent re-verification of a not-Gorenstein certificate.

A ``not_gorenstein`` result of ``gorenstein_test`` carries the nilradical J
and the socle Soc = Ann(J).  The checks below use only boxed products and
the generic subspace routines, not the raw kernels that produced them:

- J is an ideal, and each of its basis vectors is nilpotent, so J is a nil
  ideal;
- A/J is reduced, so J holds every nilpotent.  Over F_p this is the
  Frobenius x -> x^p being injective on A/J, i.e. the p-th powers of the
  basis together with J spanning A; over QQ it is J being the radical of
  the trace form;
- Soc equals ``algebra.annihilator(A, J)``;
- dim Soc > dim A - dim J, which no Gorenstein algebra allows.
"""

from gorlab import linalg
from gorlab.algebra import annihilator, multiply
from gorlab.forms import radical
from gorlab.frobenius import b_phi


def power(A, v, n):
    out = A.unit
    for _ in range(n):
        out = multiply(A, out, v)
    return out


def assert_not_gorenstein_certificate(A, rep):
    assert rep.status == "not_gorenstein"
    assert rep.trials == 0 and rep.witness is None
    f, d = A.field, A.dim
    J, soc = rep.nilradical, rep.socle
    for v in J.rows:
        assert not any(power(A, v, d)), "a basis vector of J is not nilpotent"
        for i in range(d):
            assert J.contains(multiply(A, A.basis_vector(i), v)), "J is not an ideal"
    p = f.characteristic
    if p:
        frob = [power(A, A.basis_vector(i), p) for i in range(d)]
        assert linalg.rank(frob + list(J.rows), d) == d, "A/J is not reduced"
    else:
        trace = [sum((A.c[k][j][j] for j in range(d)), f.zero) for k in range(d)]
        assert radical(b_phi(A, trace)) == J, "J is not the trace-form radical"
    assert soc == annihilator(A, J)
    assert soc.dim > d - J.dim
