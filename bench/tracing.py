"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``gorlab.*`` namespace that binds it (modules import each other's
functions by name, e.g. ``from .forms import is_nondegenerate``), so calls
made inside the library are seen as well.  A wrapper records a span (name,
start, end, parent span, op id) only while an op is running; otherwise it
costs one flag check.  Self time is a span's duration minus the time its
child spans cover.  A few functions also feed counters through hooks.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# the traced public functions, by layer
LAYERS = {
    "linalg": ("rref", "det", "det_in_domain", "kernel_basis", "invert", "solve_right", "mat_mul"),
    "poly": (
        "groebner_basis",
        "normal_form",
        "s_polynomial",
        "quotient_algebra",
        "standard_monomials",
        "lowest_degree_initial_ideal",
        "det_multipoly",
    ),
    "algebra": (
        "validate_structure",
        "base_change",
        "direct_product",
        "annihilator",
        "ideal_span",
        "multiply",
    ),
    "forms": (
        "radical",
        "is_nondegenerate",
        "witt_invariants",
        "hyp_embed",
        "metabolic_path",
        "elementary_factorization",
    ),
    "frobenius": (
        "b_phi",
        "gorenstein_test",
        "isotropy_check",
        "socle_generator",
        "connected_sum",
        "decompose_augmented",
        "unitalize",
        "rees_family",
        "form_to_algebra",
        "surgery_inverse",
    ),
    "families": ("homotopy_families", "specialize", "robber_family", "gm_rescale_check"),
    "tensors": (
        "structure_tensor",
        "cw_tensor",
        "aq_algebra",
        "one_generic",
        "strassen_commuting",
        "degeneration_to_cw",
        "reduced_degeneration",
    ),
    "cli": ("run_command", "parse_presentation", "compile_presentation"),
}

VALIDATE_KINDS = ("scalar", "tpoly")


def metric_spec():
    """Every per-layer metric: (name, unit, better)."""
    out = []
    for module, fns in LAYERS.items():
        for fn in fns:
            base = f"{module}.{fn}"
            if base == "algebra.validate_structure":
                for kind in VALIDATE_KINDS:
                    b = f"{base}.{kind}"
                    out += [
                        (f"{b}.calls", "count", "lower"),
                        (f"{b}.self_s", "s", "lower"),
                        (f"{b}.triples", "count", "lower"),
                        (f"{b}.ns_per_triple", "ns", "lower"),
                    ]
                continue
            out += [(f"{base}.calls", "count", "lower"), (f"{base}.self_s", "s", "lower")]
    out += [
        ("linalg.rref.ops_computed", "count", "lower"),
        ("linalg.rref.ns_per_op.gfp", "ns", "lower"),
        ("linalg.rref.ns_per_op.qq", "ns", "lower"),
        ("poly.groebner_basis.gens_in", "count", "lower"),
        ("poly.groebner_basis.basis_out", "count", "lower"),
        ("poly.groebner_basis.repeat_frac", "ratio", "lower"),
        ("poly.s_polynomial.useful_frac", "ratio", "higher"),
        ("frobenius.gorenstein_test.trials_used", "count", "lower"),
        ("frobenius.gorenstein_test.symbolic_frac", "ratio", "lower"),
        ("tensors.one_generic.trials_used", "count", "lower"),
        ("tensors.reduced_degeneration.success_frac", "ratio", "higher"),
        ("cli.stdout_bytes", "bytes", "lower"),
    ]
    out += [(f"{module}.raised", "count", "lower") for module in LAYERS]
    out.append(("trace_overhead_frac", "ratio", "lower"))
    return out


COUNT_SUFFIXES = (".calls", ".triples", ".trials_used", ".raised", ".gens_in", ".basis_out")


def is_count(name):
    """Counters that must repeat exactly between traced passes and runs of one seed."""
    return name.endswith(COUNT_SUFFIXES) or name in ("linalg.rref.ops_computed", "cli.stdout_bytes")


class Tracer:
    def __init__(self, g):
        self._g = g
        self._active = False
        self._op = None
        self._stack = []  # frames: [key, span id, child seconds, marked]
        self._next_id = 0
        self._installed = []
        self.keep_spans = False
        self.spans = []  # (id, parent id, name, start, end, op id)
        self.span_cap = 200_000
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._s_pending = False
        self._gb_seen = set()

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [m for name, m in sys.modules.items() if name == "gorlab" or name.startswith("gorlab.")]
        for module, fns in LAYERS.items():
            home = getattr(self._g, module)
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(module, fn_name, original)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._installed.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def _wrap(self, module, fn_name, fn):
        key = f"{module}.{fn_name}"
        hook = getattr(self, "_hook_" + key.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            return tracer._call(key, module, hook, fn, args, kwargs)

        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._gb_seen = set()
        self._s_pending = False
        self._active = True

    def end_op(self):
        self._active = False
        self._stack.clear()

    def _call(self, key, module, hook, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        self._next_id += 1
        frame = [key, self._next_id, 0.0, False]
        stack.append(frame)
        ok = False
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][2] += dur
            own = dur - frame[2]
            name = key
            if hook is not None:
                name = hook(frame, args, kwargs, result, ok, own) or key
            self.calls[name] += 1
            self.self_s[name] += own
            if not ok:
                self.counts[f"{module}.raised"] += 1
            if self.keep_spans and len(self.spans) < self.span_cap:
                self.spans.append((frame[1], parent, key, start, end, self._op))

    # -- hooks: counters measured where the work happens ---------------------

    def _hook_linalg_rref(self, frame, args, kwargs, result, ok, own):
        rows = args[0]
        if not ok or not rows or not rows[0]:
            return None
        ncols = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("ncols") or len(rows[0])
        work = len(rows) * ncols * len(result[0])
        self.counts["linalg.rref.ops_computed"] += work
        field = getattr(rows[0][0], "field", None)
        if field is None:
            return None
        kind = "qq" if field.characteristic == 0 else "gfp"
        self.counts[f"linalg.rref.ops.{kind}"] += work
        self.self_s[f"linalg.rref.{kind}"] += own
        return None

    def _hook_poly_groebner_basis(self, frame, args, kwargs, result, ok, own):
        gens = tuple(g for g in args[0] if g)
        self.counts["poly.groebner_basis.gens_in"] += len(gens)
        if ok:
            self.counts["poly.groebner_basis.basis_out"] += len(result)
        if gens in self._gb_seen:
            self.counts["poly.groebner_basis.repeats"] += 1
        self._gb_seen.add(gens)
        return None

    def _hook_poly_s_polynomial(self, frame, args, kwargs, result, ok, own):
        self._s_pending = ok
        return None

    def _hook_poly_normal_form(self, frame, args, kwargs, result, ok, own):
        if self._s_pending:
            self._s_pending = False
            if ok and result:
                self.counts["poly.s_polynomial.useful"] += 1
        return None

    def _hook_poly_det_multipoly(self, frame, args, kwargs, result, ok, own):
        for f in reversed(self._stack):
            if f[0] == "frobenius.gorenstein_test":
                f[3] = True
                break
        return None

    def _hook_algebra_validate_structure(self, frame, args, kwargs, result, ok, own):
        c = args[0]
        d = len(c)
        kind = "tpoly" if d and isinstance(c[0][0][0], self._g.scalar.TPoly) else "scalar"
        name = f"algebra.validate_structure.{kind}"
        self.counts[f"{name}.triples"] += d * d * (d + 1) // 2
        return name

    def _hook_frobenius_gorenstein_test(self, frame, args, kwargs, result, ok, own):
        if ok:
            self.counts["frobenius.gorenstein_test.trials_used"] += result.trials
        if frame[3]:
            self.counts["frobenius.gorenstein_test.symbolic"] += 1
        return None

    def _hook_tensors_one_generic(self, frame, args, kwargs, result, ok, own):
        if ok:
            self.counts["tensors.one_generic.trials_used"] += result.trials
        return None

    def _hook_tensors_reduced_degeneration(self, frame, args, kwargs, result, ok, own):
        if ok:
            self.counts["tensors.reduced_degeneration.successes"] += 1
        return None

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """This pass's raw counters, for comparing passes."""
        out = dict(self.counts)
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        return out

    def metrics(self, passes, overhead_frac):
        """Every per-layer metric, per pass."""

        def ratio(a, b):
            return a / b if b else 0.0

        calls, counts, own = self.calls, self.counts, self.self_s
        values = {}
        for module, fns in LAYERS.items():
            for fn in fns:
                base = f"{module}.{fn}"
                if base == "algebra.validate_structure":
                    for kind in VALIDATE_KINDS:
                        b = f"{base}.{kind}"
                        values[f"{b}.calls"] = calls[b] / passes
                        values[f"{b}.self_s"] = own[b] / passes
                        values[f"{b}.triples"] = counts[f"{b}.triples"] / passes
                        values[f"{b}.ns_per_triple"] = ratio(own[b] * 1e9, counts[f"{b}.triples"])
                    continue
                values[f"{base}.calls"] = calls[base] / passes
                values[f"{base}.self_s"] = own[base] / passes
        values["linalg.rref.ops_computed"] = counts["linalg.rref.ops_computed"] / passes
        for kind in ("gfp", "qq"):
            values[f"linalg.rref.ns_per_op.{kind}"] = ratio(
                own[f"linalg.rref.{kind}"] * 1e9, counts[f"linalg.rref.ops.{kind}"]
            )
        values["poly.groebner_basis.gens_in"] = counts["poly.groebner_basis.gens_in"] / passes
        values["poly.groebner_basis.basis_out"] = counts["poly.groebner_basis.basis_out"] / passes
        values["poly.groebner_basis.repeat_frac"] = ratio(
            counts["poly.groebner_basis.repeats"], calls["poly.groebner_basis"]
        )
        values["poly.s_polynomial.useful_frac"] = ratio(
            counts["poly.s_polynomial.useful"], calls["poly.s_polynomial"]
        )
        for name in ("frobenius.gorenstein_test.trials_used", "tensors.one_generic.trials_used"):
            values[name] = counts[name] / passes
        values["frobenius.gorenstein_test.symbolic_frac"] = ratio(
            counts["frobenius.gorenstein_test.symbolic"], calls["frobenius.gorenstein_test"]
        )
        values["tensors.reduced_degeneration.success_frac"] = ratio(
            counts["tensors.reduced_degeneration.successes"], calls["tensors.reduced_degeneration"]
        )
        values["cli.stdout_bytes"] = counts["cli.stdout_bytes"] / passes
        for module in LAYERS:
            values[f"{module}.raised"] = counts[f"{module}.raised"] / passes
        values["trace_overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_spec()}

    def layer_self_s(self):
        """Self time per layer, summed over every traced pass."""
        out = Counter()
        for name, s in self.self_s.items():
            if name.endswith((".gfp", ".qq")):
                continue  # the rref split repeats linalg.rref
            out[name.split(".", 1)[0]] += s
        return out
