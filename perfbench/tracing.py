"""Spans and counts at morphcalc's layer boundaries, recorded from outside.

`Tracer.install()` replaces the public functions and `MorphPoly` operators
named in LAYERS, in every morphcalc module that holds a reference to them,
with wrappers that record a span (id, name, start, end, parent) and update
counters.  A call that enters a layer from inside the same layer (recursion,
or a catalog constructor calling another) stays inside the outer span, so a
span marks one crossing of a layer boundary.  Spans are kept in memory;
`uninstall()` restores the originals and `write()` stores them at the end.
"""

from __future__ import annotations

import json
from time import perf_counter

# (module, attribute, span name); "MorphPoly." attributes are patched on the class.
LAYERS = [
    ("quantity", "MorphPoly.__mul__", "quantity.mul"),
    ("quantity", "MorphPoly.__rmul__", "quantity.mul"),
    ("quantity", "div_exact", "quantity.div"),
    ("quantity", "MorphPoly.r_coeffs", "quantity.r_coeffs"),
    ("quantity", "render", "quantity.render"),
    ("quantity", "semi_integral_minimal", "quantity.mixed"),
    ("quantity", "classify", "quantity.classify"),
    ("lang", "parse", "lang.parse"),
    ("lang", "eval_expr", "lang.eval"),
    *(("catalog", fn, "catalog.build") for fn in (
        "catalog_entry", "sphere", "poincare_sphere", "projective", "phantom",
        "orthogonal", "special_orthogonal", "general_linear", "unitary",
        "special_unitary", "symplectic", "stiefel", "stiefel_linear",
        "grassmannian", "oriented_grassmannian", "spin", "conformal_compactification",
        "twistor_stereographic", "compact_complex_sphere", "conic_compactification",
        "conic_open", "gaussian_binomial")),
    ("factorize", "factor_into_catalog", "factorize.factor"),
    ("stability", "rewrite_reachable", "stability.reachable"),
    ("corpus", "load_corpus", "corpus.load"),
    ("corpus", "verify_corpus", "corpus.verify"),
    ("cli", "run", "cli.run"),
]

COUNTS = ("quantity.mul.term_products", "quantity.div.inexact", "factorize.trial_divisions",
          "factorize.exact_divisions", "stability.states_expanded")


def _terms(x):
    # nonzero halfline terms of a MorphPoly or an int/Fraction operand
    return len(x.p_coeffs()) if hasattr(x, "p_coeffs") else int(x != 0)


class Tracer:
    def __init__(self, mc):
        self.mc = mc
        self.spans = []      # (id, name, start, end, parent id or -1)
        self.stack = []      # open spans: (id, name)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.next_id = 0
        self._restore = []

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        stack = self.stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = self.next_id
        self.next_id += 1
        parent = stack[-1][0] if stack else -1
        stack.append((span_id, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def _wrap(self, name, fn):
        tracer = self

        if name == "quantity.mul":
            def wrapper(a, b):
                tracer.counts["quantity.mul.term_products"] += _terms(a) * _terms(b)
                return tracer.span(name, fn, a, b)
        elif name == "quantity.div":
            inexact = self.mc.quantity.NonZeroRemainder

            def wrapper(num, den):
                trial = bool(tracer.stack) and tracer.stack[-1][1] == "factorize.factor"
                tracer.counts["factorize.trial_divisions"] += trial
                try:
                    result = tracer.span(name, fn, num, den)
                except inexact:
                    tracer.counts["quantity.div.inexact"] += 1
                    raise
                tracer.counts["factorize.exact_divisions"] += trial
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mc = self.mc
        modules = [mc] + [getattr(mc, m) for m in
                          ("quantity", "stability", "catalog", "factorize", "lang", "corpus", "cli")]
        for module_name, attr, name in LAYERS:
            module = getattr(mc, module_name)
            if attr.startswith("MorphPoly."):
                cls = module.MorphPoly
                attr = attr.split(".", 1)[1]
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in modules:
                if holder.__dict__.get(attr) is original:
                    self._patch(holder, attr, wrapper)
        stability = mc.stability
        neighbors = stability.rewrite_neighbors

        def counted_neighbors(state):
            self.counts["stability.states_expanded"] += 1
            return neighbors(state)
        self._patch(stability, "rewrite_neighbors", counted_neighbors)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Calls and self time per span name, plus the boundary counters."""
        child_time = {}
        for _, _, start, end, parent in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        calls, self_s = {}, {}
        for span_id, name, start, end, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts)}

    def write(self, path, meta):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "fields": ["id", "name", "start", "end", "parent"],
                       "names": names,
                       "spans": [[i, index[n], s, e, p] for i, n, s, e, p in self.spans]},
                      handle, separators=(",", ":"))
