"""The three benchmark workloads: seeded op lists with per-op checks.

A workload builds one *pass*, a fixed list of ops, from ``(seed,
pass_index)``.  The structure of a pass (sizes, relation order, block
structure) is the same in every pass and every seed; the values (names,
scalars, orientations, forms, points) come from the seed and the pass index.
So every pass carries the same mix and amount of work, however many passes a
run completes, and no two passes see the same inputs.  Each op has a check
derived from the mathematics of its input (closed-form dimensions, verdicts
known by construction, exact identities), never from stored output.

Ops call gorlab through module attributes (``g.frobenius.connected_sum``) at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from corpus import random_augmented, random_invertible

INCONCLUSIVE = "inconclusive"


class Mismatch(Exception):
    """An op's output disagrees with what its input implies."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


@dataclass
class Op:
    kind: str  # what is called, e.g. "check" or "connected_sum"
    cls: str  # kind plus size, e.g. "check A_6 QQ"; the unit of per-class medians
    run: Callable[[], object]
    check: Callable[[object], object]  # None when decided and right, INCONCLUSIVE, or raises
    decision: bool = False  # a Gorenstein / 1-genericity verdict with a known answer


@dataclass
class CliResult:
    code: int
    stdout: str


def fmt(p, value):
    """A scalar as gorlab prints it."""
    if p == 0:
        return str(Fraction(value))
    return f"{value % p} mod {p}"


def fmt_inverse(p, value):
    return str(Fraction(1, value)) if p == 0 else fmt(p, pow(value, -1, p))


def sign(x):
    return (x > 0) - (x < 0)


def field_name(p):
    return "QQ" if p == 0 else f"GF({p})"


# ---------------------------------------------------------------------------
# cli-presentations: gorlab.cli.run_command on seeded .alg files

CLI_FIELDS = (("Q", 0), ("F 101", 101))
AQ_COMMANDS = ("check", "socle", "tensor", "tensor-check", "degenerate", "witt", "homotopy")
AQ_COMBOS = tuple(itertools.product(AQ_COMMANDS, CLI_FIELDS))
CI_SHAPES = ((2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3))
NAME_LETTERS = "abcdfghjkmnpuvwz"


def run_cli(g, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = g.cli.run_command(argv)
    return CliResult(code, buf.getvalue())


def parse_report(res, code=0):
    expect(res.code == code, f"exit code {res.code}, expected {code}")
    lines = res.stdout.splitlines()
    expect(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    out = json.loads(lines[0])
    expect(out.get("schema") == "gorlab/1", "missing schema tag gorlab/1")
    return out


def _names(rng, n):
    out = []
    while len(out) < n:
        name = rng.choice(NAME_LETTERS) + str(rng.randrange(10))
        if name not in out:
            out.append(name)
    return out


def _unit(rng):
    while True:
        u = rng.randint(-7, 7)
        if u:
            return u


def _rel_lines(rng, order, rels):
    """Relations reordered by ``order`` and each scaled by a seeded unit."""
    rels = list(rels)
    order.shuffle(rels)
    return [f"rel {_unit(rng)}*({r})" for r in rels]


def aq_text(rng, order, q, field_clause):
    """A_q with renamed variables, reordered and scaled relations, the
    orientation a*1^* + c*s^* and the augmentation at the origin.  The
    first variable's square s is the degree-2 standard monomial.  ``order``
    fixes which relations appear in which order (the Buchberger work);
    ``rng`` fixes names and scalars."""
    names = _names(rng, q)
    rels = []
    for i in range(q):
        for j in range(i + 1, q):
            rels.append(f"{names[i]}*{names[j]}")
            a, b = (names[i], names[j]) if order.random() < 0.5 else (names[j], names[i])
            rels.append(f"{a}^2 - {b}^2")
    rels.append(f"{names[order.randrange(q)]}^3")
    a, c = rng.randint(-5, 5), _unit(rng)
    lines = [f"# A_{q}", f"field {field_clause}", "vars " + " ".join(names)]
    lines += _rel_lines(rng, order, rels)
    lines.append(f"orient 1 : {a}, {names[0]}^2 : {c}")
    lines.append("aug " + ", ".join(f"{n} = 0" for n in names))
    return "\n".join(lines) + "\n", names, c


def cw_entries(q, p):
    """CW_q from its closed-form support, flattened as gorlab serializes it."""
    d = q + 2
    one, zero = fmt(p, 1), fmt(p, 0)
    out = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                hit = (i == 0 and j == k) or (j == 0 and i == k) or (
                    0 < i == j <= q and k == q + 1
                )
                out.append(one if hit else zero)
    return out


def _aq_check(command, q, p, names, c):
    d = q + 2
    s_label = f"{names[0]}^2"

    def check(res):
        out = parse_report(res)
        if command == "check":
            expect(out["valid"] is True and out["dim"] == d, f"dim {out['dim']} != {d}")
            expect(out["gorenstein"] == "yes", "oriented A_q not reported Gorenstein")
            expect(out["isotropic"] is True, "origin augmentation not isotropic")
            expect(s_label in out["labels"], f"{s_label} is not a basis label")
        elif command == "socle":
            gen = out["socle_generator"]
            want = {l: fmt_inverse(p, c) if l == s_label else fmt(p, 0) for l in gen}
            expect(len(gen) == d and gen == want, "socle generator is not s/c")
            expect(out["isotropic"] is True, "origin augmentation not isotropic")
        elif command == "tensor":
            expect(out["dims"] == [d] * 3, "tensor dims")
            expect(out["tensor"]["entries"] == cw_entries(q, p), "tensor is not CW_q")
        elif command == "tensor-check":
            expect(out["dims"] == [d] * 3, "tensor dims")
            expect(out["one_generic"]["status"] == "witness", "CW_q not 1-generic")
            expect(out["strassen_commuting"] is True, "CW_q slices do not commute")
        elif command == "degenerate":
            expect(out["closed_fiber_is_aq"] is True, "closed fiber is not A_q")
            expect(len(out["family"]["labels"]) == d, "family dim")
            expect(out["invariants"]["rank"] == q, "V-form rank != q")
            if p == 0:
                expect(out["invariants"]["signature"] == q * sign(c), "V-form signature")
        elif command == "witt":
            expect(out["rank"] == d, "rank != q + 2")
            if p == 0:
                expect(out["signature"] == q * sign(c), "signature != q * sign(c)")
        else:  # homotopy --which mv --at t=1
            fiber = out["fiber"]
            expect(len(fiber["labels"]) == q + 4, "fiber dim != (q + 2) + 4 - 2")
            expect("orientation" in fiber, "fiber lost its orientation")
            expect(set(fiber["augmentations"]) == {"aug", "const", "mv"}, "augmentations")

    return check


def _aq_argv(command, path):
    if command == "tensor-check":
        return ["tensor", path, "--check", "1generic,commute"]
    if command == "homotopy":
        return ["homotopy", path, "--which", "mv", "--at", "t=1"]
    return [command, path]


def ci_text(rng, order, shape, field_clause):
    """A complete intersection x_i^{a_i} + (terms of lower degree): the pure
    powers are a Groebner basis, so dim = prod a_i, and it is Gorenstein.
    ``order`` picks the lower-degree monomials, ``rng`` their coefficients."""
    n = len(shape)
    names = _names(rng, n)
    rels = []
    for i, a in enumerate(shape):
        terms = [f"{names[i]}^{a}"]
        for _ in range(order.randint(1, 3)):
            expo = [0] * n
            for _ in range(order.randrange(a)):
                expo[order.randrange(n)] += 1
            mono = "*".join(f"{names[k]}^{e}" for k, e in enumerate(expo) if e) or "1"
            terms.append(f"{rng.choice((-1, 1)) * rng.randint(1, 4)}*{mono}")
        rels.append(" + ".join(terms))
    lines = [f"# complete intersection {shape}", f"field {field_clause}"]
    lines.append("vars " + " ".join(names))
    lines += _rel_lines(rng, order, rels)
    return "\n".join(lines) + "\n"


def _ci_check(command, dim):
    def check(res):
        out = parse_report(res)
        if command == "check":
            expect(out["valid"] is True and out["dim"] == dim, f"dim {out['dim']} != {dim}")
            if out["gorenstein"] == "inconclusive":
                return INCONCLUSIVE
            expect(out["gorenstein"] == "yes", "complete intersection reported non-Gorenstein")
        else:
            if out["status"] == "inconclusive":
                return INCONCLUSIVE
            expect(out["status"] == "oriented", "complete intersection not oriented")
            expect(len(out["witness"]) == dim, "witness length != dim")
        return None

    return check


def _points_op(g, q, seed):
    """points-degenerate, retried on the next seed while the sample is not
    generic (as the acceptance suite does)."""

    def run():
        for attempt in range(5):
            res = run_cli(g, ["points-degenerate", "--q", str(q), "--seed", str(seed + attempt)])
            if res.code != 1 or json.loads(res.stdout)["kind"] not in (
                "GenericityFailure",
                "BoundTooSmall",
            ):
                break
        return res

    def check(res):
        out = parse_report(res)
        expect(out["hilbert"] == [1, q, 1], f"Hilbert function {out['hilbert']}")
        expect(len(out["limit"]["labels"]) == q + 2, "limit dim != q + 2")
        expect(out["gorenstein"]["status"] == "oriented", "limit not Gorenstein")
        expect(len(out["points"]) == q + 2, "point count != q + 2")

    return Op("points-degenerate", f"points q={q}", run, check)


def _error_check(kind, line=None):
    def check(res):
        out = parse_report(res, code=1)
        expect(out["kind"] == kind, f"error kind {out['kind']!r}, expected {kind!r}")
        if line is not None:
            expect(out["location"]["line"] == line, "parse error location")

    return check


def build_cli(g, seed, pass_index, workdir, tiny=False):
    rng = random.Random(f"cli-presentations:{seed}:{pass_index}")
    order = random.Random("cli-presentations")
    pass_dir = os.path.join(workdir, f"pass{pass_index}")
    os.makedirs(pass_dir, exist_ok=True)
    counter = itertools.count()

    def write(text):
        path = os.path.join(pass_dir, f"op{next(counter)}.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def cli_op(kind, cls, argv, check, decision=False):
        return Op(kind, cls, lambda: run_cli(g, argv), check, decision)

    # every (command, field) up to A_5; at A_6, where one op takes seconds,
    # only `check`.  Every pass runs the same ops, so passes weigh the same.
    ladder = [(2, AQ_COMBOS)] if tiny else [(q, AQ_COMBOS) for q in (2, 3, 4, 5)]
    if not tiny:
        ladder.append((6, [c for c in AQ_COMBOS if c[0] == "check"]))
    ops = []
    for q, combos in ladder:
        for command, (clause, p) in combos:
            text, names, c = aq_text(rng, order, q, clause)
            check = _aq_check(command, q, p, names, c)
            argv = _aq_argv(command, write(text))
            ops.append(cli_op(command, f"{command} A_{q} {field_name(p)}", argv, check))
    for i, shape in enumerate(CI_SHAPES[:1] if tiny else CI_SHAPES):
        clause, p = CLI_FIELDS[i % 2]
        dim = 1
        for a in shape:
            dim *= a
        cls = f"CI dim={dim} {field_name(p)}"
        path = write(ci_text(rng, order, shape, clause))
        ops.append(cli_op("check", f"check {cls}", ["check", path], _ci_check("check", dim), True))
        argv = ["orient", path, "--seed", str(rng.randrange(1000))]
        ops.append(cli_op("orient", f"orient {cls}", argv, _ci_check("orient", dim), True))
    points = [2] if tiny else [2, 2, 3]
    ops += [_points_op(g, q, rng.randrange(10_000)) for q in points]
    # invalid inputs: an infinite quotient and a juxtaposition parse error
    x, y = _names(rng, 2)
    path = write(f"field Q\nvars {x} {y}\nrel {_unit(rng)}*({x}^{rng.randint(2, 3)})\n")
    ops.append(cli_op("invalid", "invalid infinite", ["check", path], _error_check("InfiniteDimensional")))
    path = write(f"field F 101\nvars {x} {y}\nrel {x}^2\nrel {_unit(rng)}*{x} {y}\n")
    ops.append(cli_op("invalid", "invalid parse", ["check", path], _error_check("SyntaxError", 4)))
    return ops


# ---------------------------------------------------------------------------
# frobenius-corpus: connected sums, round trips, homotopies, Rees families

FROBENIUS_FIELDS = (0, 7)


def _dual_numbers(g, f):
    z, o = f.zero, f.one
    c = [[[o, z], [z, o]], [[z, o], [z, z]]]
    return g.algebra.FiniteAlgebra(f, ["1", "x"], c, unit=[o, z], validate=False)


def _frobenius_ops(g, t, nxt, rees_oa):
    F, fam, alg, linalg = g.frobenius, g.families, g.algebra, g.linalg
    f = t.oa.field
    A = t.algebra
    d = t.oa.dim
    tag = f"d={d} {field_name(f.characteristic)}"
    st = {}

    def consum():
        st["sum"] = F.connected_sum(t, nxt)
        return st["sum"]

    def check_consum(s):
        expect(s.oa.dim == d + nxt.oa.dim - 2, "connected sum dim != d1 + d2 - 2")

    def is_true(name):
        def check(v):
            expect(v is True, f"{name} rejected a valid connected sum")

        return check

    def check_validated(v):
        expect(v is None, "validate_structure returned a value")

    def decompose():
        st["dec"] = F.decompose_augmented(t.oa, t.e)
        return st["dec"]

    def check_decompose(dec):
        expect(dec.nonunital.dim == d - 2, "V dim != d - 2")
        expect(dec.lam == t.oa.phi_of(A.unit), "lambda != phi(1)")

    def check_unitalize(rebuilt):
        dec = st["dec"]
        adapted = alg.base_change(A, dec.adapted_basis, labels=rebuilt.algebra.labels)
        expect(rebuilt.algebra.c == adapted.c, "round trip changed the table")
        expect(rebuilt.algebra.unit == adapted.unit, "round trip changed the unit")
        phi = tuple(linalg.sum_dot(r, t.oa.phi) for r in dec.adapted_basis)
        e = tuple(linalg.sum_dot(r, t.e) for r in dec.adapted_basis)
        expect(rebuilt.oa.phi == phi and rebuilt.e == e, "round trip moved phi or e")

    def homotopy():
        st["hf"] = fam.homotopy_families(t)
        return st["hf"]

    def check_homotopy(hf):
        expect(hf.h_const.dim == d + 2, "family dim != d + 2")
        expect(hf.h_const.c == hf.h_mv.c, "homotopies differ in structure")
        expect(hf.h_const.orientation == hf.h_mv.orientation, "orientations differ")
        expect(hf.h_const.unit == hf.h_mv.unit, "units differ")

    def check_fiber0(fiber):
        hf = st["hf"]
        expect(fiber.algebra.dim == d + 2, "fiber dim != d + 2")
        zero = f.zero
        aug = tuple(g.scalar.tpoly_eval(x, zero) for x in hf.h_const.augmentations["aug"])
        expect(fiber.augmentations["aug"] == aug, "t=0 augmentations differ")

    def check_fiber1(fiber):
        # the t=1 fiber is T x (k[x]/x^2), with sigma+ and gamma-theta augmentations
        hf = st["hf"]
        A1 = fiber.algebra

        def ev1(x):
            return g.scalar.tpoly_eval(x, f.one) if isinstance(x, g.scalar.TPoly) else x

        def proj1(a_vec, b_vec):
            return tuple(ev1(x) for x in hf.project(tuple(a_vec) + tuple(b_vec)))

        zd = (f.zero,) * d
        e2r = tuple(f.scalar(v) for v in (0, 0, 3, -2))
        n2r = tuple(f.scalar(v) for v in (0, 0, -1, 1))
        iota2 = proj1(zd, e2r)
        iota1 = tuple(a - b for a, b in zip(A1.unit, iota2))
        rows = []
        for i in range(d):
            psi = proj1(A.basis_vector(i), (t.e[i], f.zero, f.zero, f.zero))
            rows.append(alg.multiply(A1, psi, iota1))
        rows += [iota2, proj1(zd, n2r)]
        target = alg.direct_product(A, _dual_numbers(g, f))
        moved = alg.base_change(A1, rows, labels=target.labels)
        expect(moved.c == target.c and moved.unit == target.unit, "t=1 fiber is not T x dual")
        vals = tuple(linalg.sum_dot(fiber.augmentations["aug"], r) for r in rows)
        expect(vals == tuple(t.e) + (f.zero, f.zero), "t=1 augmentation is not sigma+")

    def check_rees(rr):
        zt, ot = g.scalar.TPoly(f), g.scalar.TPoly.const(f.one)
        gram = rr.gram.gram
        expect(gram[0][0] == zt and gram[0][d - 1] == ot, "Rees Gram corner")
        for i in range(1, d - 1):
            expect(gram[0][i] == zt and gram[i][d - 1] == zt, "Rees Gram border")
            for j in range(1, d - 1):
                want = g.scalar.TPoly.const(rr.surgered.gram[i - 1][j - 1])
                expect(gram[i][j] == want, "Rees Gram middle != surgered form")
        f1 = rr.family.at(1, validate=False)
        moved = alg.base_change(rees_oa.algebra, rr.adapted_basis, labels=rr.family.labels)
        expect(f1 == moved, "Rees fiber at 1 is not the input")

    s = st.get
    return [
        Op("connected_sum", f"connected_sum {tag}", consum, check_consum),
        Op(
            "validate_structure",
            f"validate_structure d={d + nxt.oa.dim - 2}",
            lambda: alg.validate_structure(s("sum").algebra.c, s("sum").algebra.unit, f.zero),
            check_validated,
        ),
        Op(
            "is_nondegenerate",
            f"is_nondegenerate {tag}",
            lambda: g.forms.is_nondegenerate(s("sum").oa.form),
            is_true("is_nondegenerate"),
        ),
        Op(
            "augmentation_check",
            f"augmentation_check {tag}",
            lambda: F.augmentation_check(s("sum").algebra, s("sum").e),
            is_true("augmentation_check"),
        ),
        Op(
            "isotropy_check",
            f"isotropy_check {tag}",
            lambda: F.isotropy_check(s("sum").oa, s("sum").e),
            is_true("isotropy_check"),
        ),
        Op("decompose_augmented", f"decompose_augmented {tag}", decompose, check_decompose),
        Op(
            "unitalize",
            f"unitalize {tag}",
            lambda: F.unitalize(s("dec").lam, s("dec").nonunital),
            check_unitalize,
        ),
        Op("homotopy_families", f"homotopy_families {tag}", homotopy, check_homotopy),
        Op("specialize", f"specialize t=0 {tag}", lambda: fam.specialize(s("hf").h_mv, 0), check_fiber0),
        Op("specialize", f"specialize t=1 {tag}", lambda: fam.specialize(s("hf").h_const, 1), check_fiber1),
        Op("rees_family", f"rees_family {tag}", lambda: F.rees_family(rees_oa), check_rees),
    ]


def build_frobenius(g, seed, pass_index, workdir=None, tiny=False):
    dims = range(2, 5) if tiny else range(2, 9)
    ops = []
    for p in FROBENIUS_FIELDS:
        f = g.scalar.QQ if p == 0 else g.scalar.GF(p)
        rng = random.Random(f"frobenius-corpus:{seed}:{pass_index}:{p}")
        shape = random.Random(f"frobenius-corpus:{p}")
        samples = [random_augmented(g, rng, f, d, shape) for d in dims]
        for i, t in enumerate(samples):
            # the phi(1) = 0 variant phi - phi(1) e: unitalize(0, V) in the split basis
            lam = t.oa.phi_of(t.algebra.unit)
            phi0 = tuple(a - lam * b for a, b in zip(t.oa.phi, t.e))
            rees_oa = g.frobenius.OrientedAlgebra(t.algebra, phi0)
            ops += _frobenius_ops(g, t, samples[(i + 1) % len(samples)], rees_oa)
    return ops


# ---------------------------------------------------------------------------
# dense-gfp: forms, Gorenstein tests and CW_q over prime fields

GFP = 101
FORM_DIMS = (8, 16, 24, 32)
GORENSTEIN_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
CW_QS = (6, 8, 10, 12, 14, 16)


def _mat_mul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def _unipotent(rng, n, p):
    """A random unit lower-triangular Q and its inverse, as int matrices."""
    Q = [[1 if i == j else (rng.randrange(p) if j < i else 0) for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i] = [(a - Q[i][j] * b) % p for a, b in zip(inv[i], inv[j])]
    return Q, inv


def _congruent(g0, Q, p):
    return _mat_mul(_mat_mul(Q, g0, p), [list(r) for r in zip(*Q)], p)


def _metabolic(rng, n, p):
    """Q [[0, I], [I, S]] Q^T and a basis of the Lagrangian Q^-T span(e_1..e_n)."""
    d = 2 * n
    g0 = [[0] * d for _ in range(d)]
    for i in range(n):
        g0[i][n + i] = g0[n + i][i] = 1
        for j in range(i, n):
            g0[n + i][n + j] = g0[n + j][n + i] = rng.randrange(p)
    Q, Qinv = _unipotent(rng, d, p)
    return _congruent(g0, Q, p), Qinv[:n]


def _degenerate(rng, d, r, p):
    """A symmetric form of rank d - r: M D M^T padded with zeros, moved by Q."""
    m = d - r
    M, _ = _unipotent(rng, m, p)
    D = [rng.randrange(1, p) for _ in range(m)]
    G = _mat_mul([[M[i][k] * D[k] % p for k in range(m)] for i in range(m)], [list(c) for c in zip(*M)], p)
    g0 = [row + [0] * r for row in G] + [[0] * d for _ in range(r)]
    Q, _ = _unipotent(rng, d, p)
    return _congruent(g0, Q, p)


def _alternating(rng, d):
    g0 = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            g0[i][j] = g0[j][i] = rng.randrange(2)
    return g0


def _ints(m):
    return [[x.value for x in row] for row in m]


def _check_embedding(gram, p):
    d = len(gram)

    def check(E):
        E = _ints(E)
        expect(len(E) == 2 * d, "embedding has wrong shape")
        for i in range(d):
            for j in range(d):
                v = sum(E[k][i] * E[d + k][j] + E[d + k][i] * E[k][j] for k in range(d))
                expect(v % p == gram[i][j] % p, "E^T G_Hyp E != G_B")

    return check


def _form_ops(g, rng, d):
    f, f2 = g.scalar.GF(GFP), g.scalar.GF(2)
    forms = g.forms
    n = d // 2
    r = max(1, d // 8)
    deg = _degenerate(rng, d, r, GFP)
    met, lag = _metabolic(rng, n, GFP)
    alt = _alternating(rng, d)
    B_deg = forms.BilinearForm(f, deg)
    B_met = forms.BilinearForm(f, met)
    B_alt = forms.BilinearForm(f2, alt)
    L = g.algebra.Subspace(d, [[f.scalar(x) for x in row] for row in lag])
    tag = f"d={d} GF({GFP})"

    def check_radical(W):
        expect(W.dim == r, f"radical dim {W.dim} != {r}")
        for v in _ints(W.rows):
            for row in deg:
                expect(sum(a * b for a, b in zip(row, v)) % GFP == 0, "radical vector not in kernel")

    def check_witt(inv):
        expect(inv.rank == d and inv.signature is None, "rank or signature")
        want = g.scalar.square_class(f.scalar((-1) ** n))
        expect(inv.det_square_class == want, "det square class != class of (-1)^n")

    def check_metabolic(mp):
        g0 = _ints(mp.family.at(0).gram)
        hyp = [[1 if abs(i - j) == n else 0 for j in range(d)] for i in range(d)]
        expect(g0 == hyp, "t=0 fiber is not hyperbolic")
        P = _ints(mp.adapted_basis)
        moved = _congruent(met, P, GFP)
        expect(moved == _ints(mp.family.at(1).gram), "t=1 fiber is not congruent to the input")

    return [
        Op("radical", f"radical {tag}", lambda: forms.radical(B_deg), check_radical),
        Op("witt_invariants", f"witt_invariants {tag}", lambda: forms.witt_invariants(B_met), check_witt),
        Op("hyp_embed", f"hyp_embed {tag}", lambda: forms.hyp_embed(B_met), _check_embedding(met, GFP)),
        Op("hyp_embed", f"hyp_embed d={d} GF(2)", lambda: forms.hyp_embed(B_alt), _check_embedding(alt, 2)),
        Op("metabolic_path", f"metabolic_path {tag}", lambda: forms.metabolic_path(B_met, L), check_metabolic),
    ]


def _complete_intersection(g, rng, order, f, shape):
    """x_i^{a_i} + lower-degree terms (monomials from ``order``, coefficients
    from ``rng``), compiled; dim = prod a_i."""
    n = len(shape)
    names = tuple(f"x{i}" for i in range(n))
    gens = []
    for i, a in enumerate(shape):
        terms = {tuple(a if k == i else 0 for k in range(n)): 1}
        for _ in range(3):
            expo = [0] * n
            for _ in range(order.randrange(a)):
                expo[order.randrange(n)] += 1
            terms[tuple(expo)] = f.scalar(rng.randrange(1, f.characteristic))
        gens.append(g.poly.MultiPoly(f, names, terms))
    return g.poly.quotient_algebra(gens)


def _monomial_quotient(g, rng, order, f, nvars, monos, dense):
    """k[x]/(monomials), in a scrambled basis: a change of basis drawn from
    ``order`` with its rows scaled by units from ``rng``.  A sparse scramble
    (a permutation) keeps the symbolic determinant's entries single terms."""
    names = tuple(f"x{i}" for i in range(nvars))
    A = g.poly.quotient_algebra([g.poly.MultiPoly(f, names, {m: 1}) for m in monos])
    d = A.dim
    if dense:
        P = [list(row) for row in random_invertible(g, order, f, d, bound=1)]
    else:
        perm = order.sample(range(d), d)
        P = [[f.one if j == perm[i] else f.zero for j in range(d)] for i in range(d)]
    units = [f.scalar(rng.randrange(1, f.characteristic)) for _ in range(d)]
    P = [[x * u for x in row] for row, u in zip(P, units)]
    return g.algebra.base_change(A, P)


def _non_gorenstein(g, rng, order, tiny):
    """Local algebras with a socle of dimension 2 or more.  Small ones
    (dim <= 8, over GF(7)) reach the symbolic determinant; larger ones
    (dim > 8, over GF(101)) exceed the symbolic limit."""
    f7, fp = g.scalar.GF(7), g.scalar.GF(GFP)
    small = [((2, 0), (1, 1), (0, 3)), ((4, 0), (1, 1), (0, 3)), ((5, 0), (1, 1), (0, 4))]
    m3 = [m for m in itertools.product(range(4), repeat=3) if sum(m) == 3]
    out = [(f7, _monomial_quotient(g, rng, order, f7, 2, m, False)) for m in small[: 1 if tiny else 3]]
    if not tiny:
        out.append((fp, _monomial_quotient(g, rng, order, fp, 2, ((5, 0), (1, 1), (0, 5)), True)))
        out.append((fp, _monomial_quotient(g, rng, order, fp, 3, m3, True)))
    return out


def build_dense(g, seed, pass_index, workdir=None, tiny=False):
    rng = random.Random(f"dense-gfp:{seed}:{pass_index}")
    order = random.Random("dense-gfp")
    fp = g.scalar.GF(GFP)
    F, T = g.frobenius, g.tensors
    ops = []
    for d in (4, 6) if tiny else FORM_DIMS:
        ops += _form_ops(g, rng, d)

    for shape in GORENSTEIN_SHAPES[:1] if tiny else GORENSTEIN_SHAPES:
        A = _complete_intersection(g, rng, order, fp, shape)
        seed_g = rng.randrange(1000)

        def check_gor(rep, A=A):
            if rep.status == INCONCLUSIVE:
                return INCONCLUSIVE
            expect(rep.status == "oriented", "complete intersection reported non-Gorenstein")
            form = F.b_phi(A, rep.witness)
            expect(bool(g.linalg.det(fp, form.gram)), "witness does not orient")
            return None

        ops.append(
            Op(
                "gorenstein_test",
                f"gorenstein_test CI d={A.dim} GF({GFP})",
                lambda A=A, s=seed_g: F.gorenstein_test(A, seed=s),
                check_gor,
                True,
            )
        )

    def check_not_gor(rep):
        if rep.status == INCONCLUSIVE:
            return INCONCLUSIVE
        expect(rep.status == "not_gorenstein", f"non-Gorenstein algebra reported {rep.status}")
        return None

    for f, A in _non_gorenstein(g, rng, order, tiny):
        seed_g = rng.randrange(1000)
        ops.append(
            Op(
                "gorenstein_test",
                f"gorenstein_test non-Gorenstein d={A.dim} {field_name(f.characteristic)}",
                lambda A=A, s=seed_g: F.gorenstein_test(A, seed=s),
                check_not_gor,
                True,
            )
        )

    for q in (2, 3) if tiny else CW_QS:
        Tq = T.cw_tensor(fp, q)
        st = {}
        seed_o = rng.randrange(1000)

        def one_generic(Tq=Tq, st=st, s=seed_o):
            st["rep"] = T.one_generic(Tq, seed=s)
            return st["rep"]

        def check_one_generic(rep, Tq=Tq):
            if rep.status == INCONCLUSIVE:
                return INCONCLUSIVE
            expect(rep.status == "witness", "CW_q reported not 1-generic")
            expect(bool(g.linalg.det(fp, Tq.slice_first(rep.witness))), "witness slice singular")
            return None

        def check_commuting(v):
            expect(v is True, "CW_q normalized slices do not commute")

        ops.append(Op("one_generic", f"one_generic CW_{q}", one_generic, check_one_generic, True))
        ops.append(
            Op(
                "strassen_commuting",
                f"strassen_commuting CW_{q}",
                lambda Tq=Tq, st=st: T.strassen_commuting(Tq, st["rep"].witness),
                check_commuting,
            )
        )
    return ops


WORKLOADS = {
    "cli-presentations": build_cli,
    "frobenius-corpus": build_frobenius,
    "dense-gfp": build_dense,
}
