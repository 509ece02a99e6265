"""Text-format parser for algebra presentations, command dispatcher, and
JSON report emitter.

The .alg grammar (UTF-8, line oriented, # comments):

    field Q            or    field F <p>
    vars <id> <id> ...
    rel <polynomial>                      (repeatable)
    orient <monomial> : <scalar>, ...     (against the standard-monomial basis)
    aug <id> = <scalar>, ...

Polynomials use + - * ^ with integer or rational literals; juxtaposition is
forbidden.  Reports are JSON objects tagged "schema": "gorlab/1"; identical
invocations produce byte-identical output.  Exit codes: 0 success, 1 domain
error, 2 usage error.

Design.  Each call builds its argument parser afresh, since a real call is
a fresh process, but only as much of it as the call needs: argv naming a
command gets one parser, ``gorlab <command>``, with that command's
arguments from the declarative table ``_COMMANDS``, and no subparsers;
help, an unknown command or no arguments get the top-level parser with
every command's subparser.  ``_parse_poly`` builds each relation on raw
term dicts {monomial: raw value} with ``poly._raw_add``, ``_raw_mul`` and
``_raw_pow`` (a power of one term in closed form), reading integer literals
and exponents as ints, and boxes one MultiPoly per relation.
``poly._quotient_with_index`` compiles the relations on raw values from
there to the table: one Buchberger run hands its reduced monic divisors to
the staircase walk and to the normal forms, and the table is written as
integer planes.  ``compile_presentation`` checks the aug clause once, so
``CompiledDocument.augmented`` builds its ``Augmented`` unchecked.  An
expression nested past the interpreter's depth is a SyntaxError, and a
command that runs out of memory or stack ends in a BudgetExceeded report.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import FiniteAlgebra
from .errors import (
    BudgetExceeded,
    Degenerate,
    DuplicateClause,
    FieldMismatch,
    GorlabError,
    IOFailure,
    NotIsotropicUnit,
    ParseError,
    UnknownMonomial,
    UnknownVariable,
)
from .families import homotopy_families, robber_family, specialize
from .forms import BilinearForm, hyp_embed, hyperbolic_form, gro_member, witt_invariants
from .frobenius import (
    Augmented,
    OrientedAlgebra,
    _trusted,
    augmentation_check,
    b_phi,
    connected_sum,
    gorenstein_test,
    isotropy_check,
    rees_family,
    socle_generator,
)
from .algebra import Subspace
from .poly import (
    MultiPoly,
    _boxed,
    _quotient_with_index,
    _raw_add,
    _raw_mul,
    _raw_pow,
    grevlex_key,
    mono_label,
)
from .scalar import GF, QQ, Field, Scalar
from .tensors import (
    cw_tensor,
    degeneration_to_cw,
    one_generic,
    reduced_degeneration,
    strassen_commuting,
    structure_tensor,
)

SCHEMA = "gorlab/1"
# `gorlab -h` shows the grammar part of this docstring
_DESCRIPTION = (__doc__ or "").partition("\nDesign.")[0] or None


# ---------------------------------------------------------------------------
# tokenizing and parsing


@dataclass
class _Token:
    kind: str  # IDENT NUMBER OP NEWLINE EOF
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        n = len(line)
        while col < n:
            ch = line[col]
            if ch in " \t":
                col += 1
                continue
            start = col
            if ch.isalpha() or ch == "_":
                while col < n and (line[col].isalnum() or line[col] == "_"):
                    col += 1
                tokens.append(_Token("IDENT", line[start:col], ln, start + 1))
            elif ch.isdecimal():  # the digits int() and Fraction() accept
                while col < n and line[col].isdecimal():
                    col += 1
                if col < n and line[col] == "/" and col + 1 < n and line[col + 1].isdecimal():
                    col += 1
                    while col < n and line[col].isdecimal():
                        col += 1
                tokens.append(_Token("NUMBER", line[start:col], ln, start + 1))
            elif ch in "+-*^:=,()":
                tokens.append(_Token("OP", ch, ln, start + 1))
                col += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", ln, start + 1)
        tokens.append(_Token("NEWLINE", "", ln, n + 1))
    tokens.append(_Token("EOF", "", len(text.splitlines()) + 1, 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want}, found {t.text or t.kind!r}",
                t.line,
                t.col,
                expected=want,
            )
        return self.next()

    def at_line_end(self) -> bool:
        return self.peek().kind in ("NEWLINE", "EOF")


@dataclass
class PresentationDocument:
    """A parsed .alg file, before compilation."""

    field: Field
    variables: tuple
    relations: tuple  # of MultiPoly
    orient: tuple | None  # of (monomial exponent tuple, Scalar)
    aug: tuple | None  # of (variable name, Scalar)

    def serialize(self) -> str:
        lines = []
        if self.field.characteristic == 0:
            lines.append("field Q")
        else:
            lines.append(f"field F {self.field.characteristic}")
        lines.append("vars " + " ".join(self.variables))
        for r in self.relations:
            lines.append("rel " + _poly_source(r))
        if self.orient is not None:
            pairs = ", ".join(
                f"{mono_label(m, self.variables)} : {_scalar_source(c)}"
                for m, c in self.orient
            )
            lines.append("orient " + pairs)
        if self.aug is not None:
            pairs = ", ".join(f"{v} = {_scalar_source(c)}" for v, c in self.aug)
            lines.append("aug " + pairs)
        return "\n".join(lines) + "\n"


def _scalar_source(c: Scalar) -> str:
    return str(c.value)


def _poly_source(p: MultiPoly) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[m]
        lbl = mono_label(m, p.variables)
        neg = c.field.characteristic == 0 and c.value < 0
        mag = -c if neg else c
        if lbl == "1":
            chunk = _scalar_source(mag)
        elif mag == 1:
            chunk = lbl
        else:
            chunk = f"{_scalar_source(mag)}*{lbl}"
        if not parts:
            parts.append(("-" if neg else "") + chunk)
        else:
            parts.append(("- " if neg else "+ ") + chunk)
    return " ".join(parts)


def _integer(p: _Parser, what: str) -> int:
    """A NUMBER token where the grammar needs a non-negative integer."""
    t = p.expect("NUMBER")
    if "/" in t.text:
        raise ParseError(f"{what} must be an integer", t.line, t.col)
    return _literal(t)


def _literal(t: _Token):
    """The value of a NUMBER token: an int, or a Fraction when it has a
    denominator.  A zero denominator, or more digits than int() converts
    (sys.get_int_max_str_digits()), is a ParseError there."""
    num, _, den = t.text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ValueError:
        raise ParseError("number has too many digits", t.line, t.col) from None
    except ZeroDivisionError:
        raise ParseError("zero denominator", t.line, t.col) from None


def _known_variable(t: _Token, variables) -> str:
    """The name an IDENT token gives, which must be one of ``variables``."""
    if t.text not in variables:
        raise UnknownVariable(f"unknown variable {t.text!r} at line {t.line}, column {t.col}")
    return t.text


def _parse_scalar(p: _Parser, field: Field) -> Scalar:
    neg = False
    if p.peek().kind == "OP" and p.peek().text == "-":
        p.next()
        neg = True
    val = _literal(p.expect("NUMBER"))
    return field.scalar(-val if neg else val)


def _parse_poly(p: _Parser, field: Field, variables) -> MultiPoly:
    """One polynomial, built on raw term dicts {monomial: raw value} and
    boxed once.  Integer literals stay ints (mod p over F_p) until then; a
    literal with a denominator is read by the field."""
    var_index = {v: i for i, v in enumerate(variables)}
    char = field.characteristic
    n = len(variables)

    def parse_atom() -> dict:
        t = p.peek()
        if t.kind == "OP" and t.text == "(":
            p.next()
            e = parse_expr()
            p.expect("OP", ")")
            return e
        if t.kind == "OP" and t.text == "-":
            p.next()
            return _raw_add({}, parse_atom_pow(), -1, char)
        if t.kind == "NUMBER":
            p.next()
            c = _literal(t)
            if type(c) is not int:
                c = field.scalar(c).value
            elif char:
                c %= char
            return {(0,) * n: c} if c else {}
        if t.kind == "IDENT":
            i = var_index[_known_variable(p.next(), var_index)]
            return {(0,) * i + (1,) + (0,) * (n - i - 1): 1}
        raise ParseError(
            f"expected a term, found {t.text or t.kind!r}", t.line, t.col,
            expected="term",
        )

    def parse_atom_pow() -> dict:
        base = parse_atom()
        t = p.peek()
        if t.kind == "OP" and t.text == "^":
            p.next()
            base = _raw_pow(base, _integer(p, "exponent"), n, char)
        # juxtaposition is forbidden: the next token must be an operator
        nxt = p.peek()
        if nxt.kind in ("IDENT", "NUMBER") or (nxt.kind == "OP" and nxt.text == "("):
            raise ParseError(
                "juxtaposition is not allowed; use '*'", nxt.line, nxt.col,
                expected="operator",
            )
        return base

    def parse_term() -> dict:
        out = parse_atom_pow()
        while p.peek().kind == "OP" and p.peek().text == "*":
            p.next()
            out = _raw_mul(out, parse_atom_pow(), char)
        return out

    def parse_expr() -> dict:
        out = parse_term()
        while p.peek().kind == "OP" and p.peek().text in "+-":
            op = p.next().text
            out = _raw_add(out, parse_term(), 1 if op == "+" else -1, char)
        return out

    try:
        raw = parse_expr()
    except RecursionError:  # the interpreter's depth is the nesting bound
        t = p.peek()
        raise ParseError("expression nested too deeply", t.line, t.col) from None
    return _boxed(field, variables, raw if char else {m: Fraction(c) for m, c in raw.items()})


def _parse_monomial_text(p: _Parser, variables):
    """Monomial in an orient clause: products of powers of variables, or 1."""
    var_index = {v: i for i, v in enumerate(variables)}
    expo = [0] * len(variables)
    t = p.peek()
    if t.kind == "NUMBER" and t.text == "1":
        p.next()
        return tuple(expo)
    while True:
        name = _known_variable(p.expect("IDENT"), var_index)
        e = 1
        if p.peek().kind == "OP" and p.peek().text == "^":
            p.next()
            e = _integer(p, "exponent")
        expo[var_index[name]] += e
        if p.peek().kind == "OP" and p.peek().text == "*":
            p.next()
            continue
        return tuple(expo)


def _scalar_list(p: _Parser, field: Field, key, sep: str) -> tuple:
    """A clause's ``key sep scalar, ...`` list as (key, Scalar) pairs, each
    key parsed by ``key()``."""
    out = []
    while True:
        k = key()
        p.expect("OP", sep)
        out.append((k, _parse_scalar(p, field)))
        if not (p.peek().kind == "OP" and p.peek().text == ","):
            return tuple(out)
        p.next()


def parse_presentation(text: str) -> PresentationDocument:
    """Parse the .alg grammar; errors carry line and column."""
    p = _Parser(_tokenize(text))
    fld: Field | None = None
    variables: tuple | None = None
    relations = []
    orient = None
    aug = None

    while p.peek().kind != "EOF":
        if p.peek().kind == "NEWLINE":
            p.next()
            continue
        head = p.expect("IDENT")
        if head.text == "field":
            if fld is not None:
                raise DuplicateClause(f"duplicate field clause at line {head.line}")
            t = p.expect("IDENT")
            if t.text == "Q":
                fld = QQ
            elif t.text == "F":
                fld = GF(_integer(p, "characteristic"))
            else:
                raise ParseError("expected Q or F <p>", t.line, t.col, expected="Q|F")
        elif head.text == "vars":
            if variables is not None:
                raise DuplicateClause(f"duplicate vars clause at line {head.line}")
            names = []
            while not p.at_line_end():
                t = p.expect("IDENT")
                if t.text in names:
                    raise DuplicateClause(
                        f"duplicate variable {t.text!r} at line {t.line}"
                    )
                names.append(t.text)
            if not names:
                raise ParseError("vars needs at least one name", head.line, head.col)
            variables = tuple(names)
        elif head.text == "rel":
            if fld is None or variables is None:
                raise ParseError(
                    "rel before field/vars clauses", head.line, head.col
                )
            relations.append(_parse_poly(p, fld, variables))
        elif head.text == "orient":
            if orient is not None:
                raise DuplicateClause(f"duplicate orient clause at line {head.line}")
            if fld is None or variables is None:
                raise ParseError("orient before field/vars", head.line, head.col)
            orient = _scalar_list(p, fld, lambda: _parse_monomial_text(p, variables), ":")
        elif head.text == "aug":
            if aug is not None:
                raise DuplicateClause(f"duplicate aug clause at line {head.line}")
            if fld is None or variables is None:
                raise ParseError("aug before field/vars", head.line, head.col)
            aug = _scalar_list(p, fld, lambda: _known_variable(p.expect("IDENT"), variables), "=")
        else:
            raise ParseError(
                f"unknown clause {head.text!r}", head.line, head.col,
                expected="field|vars|rel|orient|aug",
            )
        if not p.at_line_end():
            t = p.peek()
            raise ParseError(
                f"trailing input {t.text!r}", t.line, t.col, expected="end of line"
            )
    if fld is None:
        raise ParseError("missing field clause", 1, 1, expected="field")
    if variables is None:
        raise ParseError("missing vars clause", 1, 1, expected="vars")
    return PresentationDocument(fld, variables, tuple(relations), orient, aug)


# ---------------------------------------------------------------------------
# compilation


@dataclass
class CompiledDocument:
    doc: PresentationDocument
    algebra: FiniteAlgebra
    phi: tuple | None
    e: tuple | None

    def orientation(self) -> tuple:
        if self.phi is None:
            raise UnknownMonomial("document has no orient clause")
        return self.phi

    def oriented(self) -> OrientedAlgebra:
        return OrientedAlgebra(self.algebra, self.orientation())

    def augmented(self) -> Augmented:
        """The oriented algebra with the aug clause's e, which
        ``compile_presentation`` has already checked to be an algebra map."""
        if self.e is None:
            raise UnknownVariable("document has no aug clause")
        return _trusted(Augmented, oa=self.oriented(), e=self.e)


def compile_presentation(doc: PresentationDocument) -> CompiledDocument:
    """Quotient compilation plus resolution of orient/aug clauses against
    the standard-monomial basis."""
    A, index = _quotient_with_index(doc.relations)
    phi = None
    if doc.orient is not None:
        vec = [doc.field.zero] * A.dim
        for m, c in doc.orient:
            if m not in index:
                raise UnknownMonomial(
                    f"{mono_label(m, doc.variables)} is not a standard monomial"
                )
            vec[index[m]] = vec[index[m]] + c
        phi = tuple(vec)
    e = None
    if doc.aug is not None:
        values = {v: doc.field.zero for v in doc.variables}
        for v, c in doc.aug:
            values[v] = c
        vec = []
        for m in index:
            val = doc.field.one
            for name, expo in zip(doc.variables, m):
                for _ in range(expo):
                    val = val * values[name]
            vec.append(val)
        e = tuple(vec)
        if not augmentation_check(A, e):
            raise UnknownVariable("aug clause does not define an algebra map")
    return CompiledDocument(doc, A, phi, e)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise IOFailure(f"cannot read {path}: {ex.strerror or ex}") from ex
    except UnicodeDecodeError as ex:
        raise IOFailure(f"{path} is not UTF-8 text: {ex}") from ex


def load_algebra_file(path: str) -> CompiledDocument:
    return compile_presentation(parse_presentation(_read_text(path)))


def load_form_file(path: str) -> BilinearForm:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as ex:
        raise IOFailure(f"{path} is not valid JSON: {ex}") from ex
    try:
        fdesc = data["field"]
        char = fdesc["characteristic"]
        if isinstance(char, bool):
            raise TypeError(f"characteristic {json.dumps(char)} is not an integer")
        fld = QQ if char == 0 else GF(char)
        if fdesc["kind"] != fld.kind:
            raise FieldMismatch(f"field kind {fdesc['kind']} contradicts its characteristic")
        if not all(isinstance(x, str) for row in data["gram"] for x in row):
            raise TypeError('Gram entries must be strings such as "1/2" or "3 mod 7"')
        gram = [[fld.parse(x) for x in row] for row in data["gram"]]
    except (KeyError, TypeError) as ex:
        raise IOFailure(f"{path} is not a form file (field + gram): {ex}") from ex
    return BilinearForm(fld, gram)


# ---------------------------------------------------------------------------
# command implementations


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        out = json.dumps(payload, sort_keys=True, indent=2)
    else:
        out = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(out + "\n")


def _labelled(labels, vec) -> dict:
    return {l: str(x) for l, x in zip(labels, vec)}


def _augmented_payload(t: Augmented) -> dict:
    out = t.oa.serialize()
    out["augmentation"] = _labelled(t.algebra.labels, t.e)
    return out


def _cmd_check(args) -> dict:
    cd = load_algebra_file(args.file)
    out = {
        "command": "check",
        "valid": True,
        "dim": cd.algebra.dim,
        "labels": list(cd.algebra.labels),
    }
    oa = None
    if cd.phi is not None:
        oa = cd.oriented()  # raises Degenerate if the clause is no orientation
        out["gorenstein"] = "yes"
        out["witness"] = _labelled(cd.algebra.labels, oa.phi)
    else:
        rep = gorenstein_test(cd.algebra, seed=0)
        out["gorenstein"] = "no" if rep.status == "not_gorenstein" else "yes"
        if rep.witness is not None:
            out["witness"] = _labelled(cd.algebra.labels, rep.witness)
    if cd.e is not None:
        out["augmentation"] = _labelled(cd.algebra.labels, cd.e)
        if oa is not None:
            out["isotropic"] = isotropy_check(oa, cd.e)
    return out


def _cmd_orient(args) -> dict:
    cd = load_algebra_file(args.file)
    rep = gorenstein_test(
        cd.algebra,
        seed=args.seed,
        trials=args.trials,
        symbolic_max_dim=args.symbolic_max_dim,
    )
    return {"command": "orient", **rep.serialize(cd.algebra.labels)}


def _cmd_socle(args) -> dict:
    cd = load_algebra_file(args.file)
    t = cd.augmented()
    x = socle_generator(t.oa, t.e)
    return {
        "command": "socle",
        "socle_generator": _labelled(cd.algebra.labels, x),
        "isotropic": not linalg.sum_dot(t.e, x),  # isotropy_check, on the one solve
    }


def _cmd_consum(args) -> dict:
    t1 = load_algebra_file(args.file1).augmented()
    t2 = load_algebra_file(args.file2).augmented()
    s = connected_sum(t1, t2)
    return {"command": "consum", "result": _augmented_payload(s)}


def _cmd_rees(args) -> dict:
    cd = load_algebra_file(args.file)
    oa = cd.oriented()
    if oa.phi_of(oa.algebra.unit):
        raise NotIsotropicUnit("rees needs phi(1) = 0")
    rr = rees_family(oa)
    return {
        "command": "rees",
        "family": rr.family.serialize(),
        "gram": rr.gram.serialize(),
        "adapted_basis": [[str(x) for x in row] for row in rr.adapted_basis],
    }


def _parse_at(text: str):
    if not text.startswith("t="):
        raise GorlabError("expected --at t=VALUE")
    try:
        return Fraction(text[2:])
    except (ValueError, ZeroDivisionError) as ex:
        raise GorlabError(f"bad value in --at: {ex}") from ex


def _field_arg(text: str):
    if text == "Q":
        return QQ
    try:
        return GF(int(text))
    except ValueError as ex:
        raise GorlabError(f"--field expects Q or a prime: {text!r}") from ex


def _fiber_payload(fiber) -> dict:
    out = fiber.algebra.serialize()
    if fiber.orientation is not None:
        out["orientation"] = _labelled(fiber.algebra.labels, fiber.orientation)
    for name, vec in fiber.augmentations.items():
        out.setdefault("augmentations", {})[name] = _labelled(
            fiber.algebra.labels, vec
        )
    return out


def _cmd_robber(args) -> dict:
    fld = _field_arg(args.field)
    fam = robber_family(fld)
    if args.at is not None:
        fiber = specialize(fam, fld.scalar(_parse_at(args.at)))
        return {"command": "robber", "fiber": _fiber_payload(fiber)}
    return {"command": "robber", "family": fam.serialize()}


def _cmd_homotopy(args) -> dict:
    cd = load_algebra_file(args.file)
    t = cd.augmented()
    hf = homotopy_families(t)
    fam = hf.h_const if args.which == "const" else hf.h_mv
    if args.at is not None:
        fiber = specialize(fam, cd.doc.field.scalar(_parse_at(args.at)))
        return {"command": "homotopy", "which": args.which, "fiber": _fiber_payload(fiber)}
    return {"command": "homotopy", "which": args.which, "family": fam.serialize()}


def _cmd_degenerate(args) -> dict:
    cd = load_algebra_file(args.file)
    t = cd.augmented()
    rep = degeneration_to_cw(t)
    out = {
        "command": "degenerate",
        "family": rep.family.serialize(),
        "v_form": rep.v_form.serialize(),
        "invariants": rep.invariants.serialize(),
        "closed_fiber_is_aq": rep.closed_fiber_is_aq,
    }
    if args.at is not None:
        fiber = specialize(rep.family, cd.doc.field.scalar(_parse_at(args.at)))
        out["fiber"] = _fiber_payload(fiber)
    return out


def _cmd_points_degenerate(args) -> dict:
    rep = reduced_degeneration(args.q, args.seed)
    return {"command": "points-degenerate", **rep.serialize()}


def _cmd_tensor(args) -> dict:
    cd = load_algebra_file(args.file)
    T = structure_tensor(cd.algebra)
    checks = args.check.split(",") if args.check else []
    unknown = set(checks) - {"1generic", "commute"}
    if unknown:
        raise GorlabError(f"unknown checks: {', '.join(sorted(unknown))}")
    out = {"command": "tensor", "dims": list(T.dims)}
    witness = None
    if "1generic" in checks:
        rep = one_generic(T)
        out["one_generic"] = rep.serialize()
        witness = rep.witness
    if "commute" in checks:
        if witness is None:
            witness = cd.algebra.unit
        out["strassen_commuting"] = strassen_commuting(T, witness)
    if not checks:
        out["tensor"] = T.serialize()
    return out


def _cmd_cw(args) -> dict:
    fld = _field_arg(args.field)
    return {"command": "cw", "tensor": cw_tensor(fld, args.q).serialize()}


def _cmd_witt(args) -> dict:
    cd = load_algebra_file(args.file)
    # one determinant of b_phi: witt_invariants' decides the orientation too
    try:
        inv = witt_invariants(b_phi(cd.algebra, cd.orientation()))
    except Degenerate:
        raise Degenerate("phi does not orient the algebra: b_phi is degenerate") from None
    return {"command": "witt", **inv.serialize()}


def _cmd_embed_hyp(args) -> dict:
    B = load_form_file(args.formfile)
    E = hyp_embed(B)
    return {
        "command": "embed-hyp",
        "n": B.dim,
        "embedding": [[str(x) for x in row] for row in E],
    }


def _cmd_gro(args) -> dict:
    B = load_form_file(args.formfile)
    if B.dim % 2:
        raise GorlabError("ambient form must be hyperbolic of even dimension")
    n = B.dim // 2
    if B != hyperbolic_form(B.field, n):
        raise GorlabError("ambient form must be the standard hyperbolic form")
    rows = []
    for chunk in args.subspace.split(";"):
        rows.append([B.field.parse(x) for x in chunk.split(",")])
    W = Subspace(2 * n, rows)
    return {"command": "gro", "member": gro_member(W, n), "subspace_dim": W.dim}


# ---------------------------------------------------------------------------
# dispatcher


class _Parser2(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 with a JSON usage error
        _emit({"schema": SCHEMA, "kind": "UsageError", "message": message}, False)
        raise SystemExit(2)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _arg(*flags, **kw):
    return flags, kw


# command name -> (handler, its arguments after --pretty), in help order
_COMMANDS = {
    "check": (_cmd_check, _arg("file")),
    "orient": (
        _cmd_orient,
        _arg("file"),
        _arg("--seed", type=int, default=0),
        _arg("--trials", type=_nonnegative_int, default=64),
        _arg("--symbolic-max-dim", type=_nonnegative_int, default=8, dest="symbolic_max_dim"),
    ),
    "socle": (_cmd_socle, _arg("file")),
    "consum": (_cmd_consum, _arg("file1"), _arg("file2")),
    "rees": (_cmd_rees, _arg("file")),
    "robber": (_cmd_robber, _arg("--at", default=None), _arg("--field", default="Q")),
    "homotopy": (
        _cmd_homotopy,
        _arg("file"),
        _arg("--which", choices=("const", "mv"), required=True),
        _arg("--at", default=None),
    ),
    "degenerate": (_cmd_degenerate, _arg("file"), _arg("--at", default=None)),
    "points-degenerate": (
        _cmd_points_degenerate,
        _arg("--q", type=int, required=True),
        _arg("--seed", type=int, default=0),
    ),
    "tensor": (_cmd_tensor, _arg("file"), _arg("--check", default="")),
    "cw": (_cmd_cw, _arg("--q", type=int, required=True), _arg("--field", default="Q")),
    "witt": (_cmd_witt, _arg("file")),
    "embed-hyp": (_cmd_embed_hyp, _arg("formfile")),
    "gro": (_cmd_gro, _arg("formfile"), _arg("--subspace", required=True)),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give p the arguments of command ``name``, from ``_COMMANDS``."""
    fn, *arguments = _COMMANDS[name]
    p.set_defaults(fn=fn)
    p.add_argument("--pretty", action="store_true")
    for flags, kw in arguments:
        p.add_argument(*flags, **kw)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The gorlab argument parser, with every command's subparser."""
    top = _Parser2(prog="gorlab", description=_DESCRIPTION)
    sub = top.add_subparsers(dest="cmd", required=True)
    for name in _COMMANDS:
        _add_arguments(sub.add_parser(name), name)
    return top


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the exit code.

    A call that names a command parses the rest of argv with that command's
    parser alone, which prints the help and usage errors its subparser in
    ``build_parser`` prints; any other argv (help, an unknown command,
    nothing) gets the full parser, so help and usage errors list every
    command.
    """
    argv = list(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            args = _add_arguments(_Parser2(prog=f"gorlab {argv[0]}"), argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        payload = args.fn(args)
    except GorlabError as ex:
        err = {"schema": SCHEMA, "kind": ex.kind, "message": str(ex)}
        if isinstance(ex, ParseError):
            err["location"] = {"line": ex.line, "col": ex.col}
            if ex.expected:
                err["expected"] = ex.expected
        _emit(err, getattr(args, "pretty", False))
        return 1
    except MemoryError:
        exhausted = "out of memory"
    except RecursionError:
        exhausted = "recursion too deep"
    else:
        _emit({"schema": SCHEMA, **payload}, args.pretty)
        return 0
    # reported past the except clauses, which free the failed work's frames
    _emit({"schema": SCHEMA, "kind": BudgetExceeded.kind, "message": exhausted}, args.pretty)
    return 1


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
