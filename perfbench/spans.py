"""Spans around the engine's public functions, recorded from outside src/.

``Tracer.install`` replaces each function in ``HOOKS`` with a wrapper at the
name where its caller looks it up: ``reciprocal`` as seen from ``families``,
``run_properties`` and the audit phases as seen from ``run_verify``, and so
on.  A wrapper records one span (layer, start, end, parent span, operation
id) and a few counts.  Spans stay in memory until the pass ends.

Layer times are self times: a span's duration minus the part covered by its
child spans, so the layers add up to the traced time without double
counting.  The audit phases are the exception: they partition one verify,
so they are reported as inclusive times.
"""

from __future__ import annotations

import importlib
import json
import time
from fractions import Fraction

from qappell.qcore import QContext

# (module, attribute, layer); a missing attribute is skipped, so the trace
# keeps working when a later engine drops or renames a helper.
HOOKS = (
    ("qappell.families", "reciprocal", "series"),
    ("qappell.families", "convolve", "series"),
    ("qappell.audit", "convolve", "series"),
    ("qappell.families", "resolve", "families.resolve"),
    ("qappell.audit", "resolve", "families.resolve"),
    ("qappell.cli", "resolve", "families.resolve"),
    ("qappell.families", "pair_family", "families.resolve"),
    ("qappell.families", "product_family", "families.build"),
    ("qappell.audit", "product_family", "families.build"),
    ("qappell.cli", "product_family", "families.build"),
    ("qappell.audit", "iterate2", "families.build"),
    ("qappell.audit", "apply_operator", "families.build"),
    ("qappell.cli", "apply_operator", "families.build"),
    ("qappell.audit", "umbral_compose", "families.build"),
    ("qappell.families.AppellFamily", "poly", "families.build"),
    ("qappell.audit", "det_appell_poly", "determinant"),
    ("qappell.audit", "det_pair_poly", "determinant"),
    ("qappell.cli", "det_appell_poly", "determinant"),
    ("qappell.cli", "det_pair_poly", "determinant"),
    ("qappell.roots", "find_roots", "roots.find"),
    ("qappell.audit", "find_roots", "roots.find"),
    ("qappell.cli", "find_roots", "roots.find"),
    ("qappell.roots", "sample", "roots.sample"),
    ("qappell.cli", "sample", "roots.sample"),
    ("qappell.audit", "run_properties", "audit.properties"),
    ("qappell.audit", "_audit_numbers", "audit.tables"),
    ("qappell.audit", "_audit_family_polys", "audit.tables"),
    ("qappell.audit", "_audit_iterated_polys", "audit.tables"),
    ("qappell.audit", "_audit_zeros", "audit.zeros"),
    ("qappell.audit", "_exhibits", "audit.exhibits"),
    ("qappell.audit.VerifyReport", "to_text", "fmt.render"),
    ("qappell.audit.VerifyReport", "to_json_dict", "fmt.render"),
    ("qappell.cli", "main", "cli"),
) + tuple(
    (module, name, "fmt.render")
    for module in ("qappell.fmt", "qappell.audit", "qappell.cli")
    for name in ("frac_str", "decimal_str", "poly_text", "real_str", "pair_str")
)

# Layers whose calls show a q-context, an exact result to size or a sample.
_OBSERVED = {"series", "families.resolve", "families.build", "determinant",
             "roots.sample", "audit.properties"}


def _resolve_target(path: str):
    """The module or class named by a dotted path under qappell."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among the values."""
    best = 0
    for c in values:
        if isinstance(c, Fraction):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def result_bits(obj) -> int:
    """Coefficient size of an engine result: a family, a sequence or a poly."""
    if hasattr(obj, "numbers") and hasattr(obj, "beta"):
        return max(coeff_bits(obj.numbers.coeffs), coeff_bits(obj.beta.coeffs))
    coeffs = getattr(obj, "coeffs", None)
    return coeff_bits(coeffs) if coeffs is not None else 0


def memo_entries(ctx) -> int:
    """Entries held in the memo tables of one q-context, whatever they are named."""
    total = 0
    for name in getattr(type(ctx), "__slots__", ()) or vars(ctx):
        value = getattr(ctx, name, None)
        if isinstance(value, (dict, list)):
            total += len(value)
    return total


class Tracer:
    """In-memory span recorder; one per traced pass.

    clock gives the span times; the benchmark passes one that stops while
    the host-speed loop runs, so calibration never lands in a span.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []  # (layer, start, end, parent, op, failed)
        self._stack: list[int] = []
        self.active = False
        self.op = -1
        self.det_max_n = 0
        self.sample_points = 0
        self._op_bits = 0
        self._op_contexts: dict[int, object] = {}

    def install(self) -> None:
        """Wrap every hook that exists."""
        for path, attr, layer in HOOKS:
            target = _resolve_target(path)
            fn = getattr(target, attr, None) if target is not None else None
            if callable(fn):
                setattr(target, attr, self._wrap(fn, layer))

    def _note_context(self, obj) -> None:
        ctx = getattr(obj, "ctx", obj)
        if isinstance(ctx, QContext):
            self._op_contexts[id(ctx)] = ctx

    def _wrap(self, fn, layer: str):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = self.clock
        observe = layer in _OBSERVED

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, tracer.op, failed)
                if observe and not failed:
                    tracer._observe(layer, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer: str, args, kwargs, result) -> None:
        if layer == "roots.sample":
            self.sample_points += len(result)
            return
        for obj in (*args[:3], result):
            self._note_context(obj)
        self._op_bits = max(self._op_bits, result_bits(result))
        if layer == "determinant":
            n = kwargs.get("n", args[-1])
            if isinstance(n, int):
                self.det_max_n = max(self.det_max_n, n)

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_bits = 0
        self._op_contexts = {}
        self.active = True

    def end_op(self) -> dict:
        """Stop recording; the op's coefficient size and memo entries."""
        self.active = False
        memo = sum(memo_entries(c) for c in self._op_contexts.values())
        self._op_contexts = {}
        return {"coeff_bits_max": self._op_bits, "memo_entries": memo}

    def layer_totals(self) -> dict:
        """Per-layer metrics of this pass (all but startup and overhead)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _op, _f in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = {}
        incl_ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        failed: dict[str, int] = {}
        for i, (layer, start, end, _p, _op, f) in enumerate(self.spans):
            dur = end - start
            self_ms[layer] = self_ms.get(layer, 0.0) + (dur - child[i]) * 1e3
            incl_ms[layer] = incl_ms.get(layer, 0.0) + dur * 1e3
            calls[layer] = calls.get(layer, 0) + 1
            failed[layer] = failed.get(layer, 0) + f
        return {
            "determinant.calls": calls.get("determinant", 0),
            "determinant.ms": self_ms.get("determinant", 0.0),
            "determinant.max_n": self.det_max_n,
            "families.resolve_calls": calls.get("families.resolve", 0),
            "families.resolve_ms": self_ms.get("families.resolve", 0.0),
            "families.build_ms": self_ms.get("families.build", 0.0),
            "series.calls": calls.get("series", 0),
            "series.ms": self_ms.get("series", 0.0),
            "roots.find_calls": calls.get("roots.find", 0),
            "roots.find_ms": self_ms.get("roots.find", 0.0),
            "roots.failed": failed.get("roots.find", 0),
            "roots.sample_points": self.sample_points,
            "roots.sample_ms": self_ms.get("roots.sample", 0.0),
            "audit.properties_ms": incl_ms.get("audit.properties", 0.0),
            "audit.tables_ms": incl_ms.get("audit.tables", 0.0),
            "audit.zeros_ms": incl_ms.get("audit.zeros", 0.0),
            "audit.exhibits_ms": incl_ms.get("audit.exhibits", 0.0),
            "cli.self_ms": self_ms.get("cli", 0.0),
            "fmt.render_ms": self_ms.get("fmt.render", 0.0),
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: layer, start_us, end_us, parent, op, failed."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, op, f in self.spans:
                fh.write(json.dumps([layer, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1), parent, op, int(f)]))
                fh.write("\n")
