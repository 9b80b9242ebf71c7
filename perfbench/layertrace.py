"""Layer tracer for traced benchmark runs.

Wraps the public entry points of each nscheck layer by patching module
attributes from outside the package.  Every nscheck module namespace that
re-imported a wrapped name gets the wrapper too, so calls between layers
are seen wherever they are made.  Scalar arithmetic is patched on the
class and counted as numeric or symbolic by its operands.

Spans are kept in memory as ``[layer, name, op, parent, start, end,
scalar_s]``; ``scalar_s`` is the time spent in Scalar arithmetic directly
under the span, which is recorded as a count rather than as spans of its
own because there are millions of such calls.  A layer's self time is the
duration of its spans minus the part covered by child spans and by Scalar
arithmetic.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

LAYERS = ("scalars", "algebra", "enveloping", "modules", "analysis", "cli")

# public functions wrapped per layer; methods are given as "Class.method"
TRACED = {
    "algebra": ("bracket", "bracket_basis", "k_action_on_A", "A_action_on_k",
                "compatibility_residual"),
    "enveloping": ("smash_product", "smash_bracket", "omega", "gl_sum", "l_prime",
                   "g_prime", "verify_reconstruction"),
    "modules": ("act", "module_axiom_residual", "GammaModule.gen_action",
                "GammaModule.amon_action", "parse_module_descriptor", "gamma",
                "gamma_plus", "gamma_minus", "gamma_prime", "parity_change"),
    "analysis": ("verify_jacobi", "jacobi_family_reports", "jacobi_residual",
                 "compat_reports", "action_rep_reports", "reconstruction_reports",
                 "centralizer_reports", "psi_table_reports", "minimal_annihilator",
                 "chain_reports", "a_l_chain", "a_g_chain", "module_edges",
                 "reachability_closure", "simplicity_verdict", "find_intertwiner",
                 "verify_identity_catalogue", "classification_table"),
    "cli": ("run", "cmd_verify", "cmd_identities", "cmd_module_axiom",
            "cmd_module_simplicity", "cmd_module_iso", "cmd_annihilator",
            "cmd_classify"),
}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")

# lru caches whose statistics are reported, per layer
CACHED_LAYERS = {"enveloping": "pbw_cache", "modules": "action_cache"}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.scalar_depth = 0
        self.scalar_s = 0.0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"nscheck.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("nscheck")] + list(mods.values())
        for layer, names in TRACED.items():
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mods[layer], owner_name) if owner_name else mods[layer]
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                wrapper = self._wrap(layer, attr, original)
                self._patch(owner, attr, wrapper)
                if not owner_name:
                    for ns in namespaces:
                        if ns is not owner and ns.__dict__.get(attr) is original:
                            self._patch(ns, attr, wrapper)
        scalar_cls = mods["scalars"].Scalar
        for attr in SCALAR_OPS:
            original = scalar_cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"scalars.Scalar.{attr}")
                continue
            self._patch(scalar_cls, attr, self._wrap_scalar(original, scalar_cls))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_result = self._on_smash_product if name == "smash_product" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, name, self.op, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_smash_product(self, result) -> None:
        self.counts["enveloping.terms_out"] += len(result.terms)

    def _wrap_scalar(self, fn, scalar_cls):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            if self.scalar_depth:  # nested op, e.g. __rsub__ calling __sub__
                return fn(*args)
            numeric = all(a.is_numeric() for a in args if isinstance(a, scalar_cls))
            counts["scalars.ops_numeric" if numeric else "scalars.ops_symbolic"] += 1
            self.scalar_depth = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                self.scalar_depth = 0
                self.scalar_s += elapsed
                if stack:
                    spans[stack[-1]][6] += elapsed

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Counts, self times and cache statistics, keyed by metric name."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s["scalars"] = self.scalar_s
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[5] - span[4]
        calls = Counter()
        for i, (layer, name, _op, _parent, start, end, scalar_s) in enumerate(self.spans):
            self_s[layer] += (end - start) - child_s[i] - scalar_s
            calls[layer] += 1
            calls[f"{layer}.{name}"] += 1
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out["scalars.ops_numeric"] = self.counts["scalars.ops_numeric"]
        out["scalars.ops_symbolic"] = self.counts["scalars.ops_symbolic"]
        out["algebra.calls"] = calls["algebra"]
        out["enveloping.smash_products"] = calls["enveloping.smash_product"]
        out["enveloping.terms_out"] = self.counts["enveloping.terms_out"]
        out["modules.gen_action_calls"] = calls["modules.gen_action"]
        out["modules.act_calls"] = calls["modules.act"]
        out["analysis.suite_calls"] = calls["analysis"]
        out["trace.spans"] = len(self.spans)
        for layer, label in CACHED_LAYERS.items():
            hits, misses, entries = cache_totals(importlib.import_module(f"nscheck.{layer}"))
            out[f"{layer}.{label}_hits"] = hits
            out[f"{layer}.{label}_misses"] = misses
            out[f"{layer}.{label}_entries"] = entries
        return out


def cache_totals(module) -> tuple[int, int, int]:
    """Summed hits, misses and current size of a module's lru caches."""
    hits = misses = entries = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            hits += stats.hits
            misses += stats.misses
            entries += stats.currsize
    return hits, misses, entries
