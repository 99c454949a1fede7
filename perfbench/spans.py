"""Span tracing of skeinpoly's public functions, installed from outside.

``Tracer.install`` replaces public functions and methods of ``rings``,
``diagrams``, ``homfly``, ``kauffman``, ``dskein`` and ``cli`` with
wrappers that record one span per call: name, start, end, parent span and
the invocation id the benchmark sets before each CLI call.  A function
imported by name into another skeinpoly module is replaced there too, so
internal calls are seen.  Private helpers are not wrapped: their time is
self time of the nearest wrapped caller.

Spans live in typed arrays while the pass runs and are written out only
at the end.  A span's self time is its duration minus the durations of
its direct children; a layer's self time is the sum over the functions
listed for it in ``LAYERS``.  A span includes most of its wrapper's own
bookkeeping, so that cost falls on the called function; README.md gives
how much it is.

Two things are counted besides spans:

* engine nodes: ``HomflyEngine.p`` and ``KauffmanEngine.value`` reset
  ``nodes`` on every call, so the reading after each public call is
  summed;
* memo lookups and hits, on a counting mapping installed as each new
  engine's ``memo``.
"""

import json
import time
from array import array
from collections import Counter

# Layer -> (module, qualified name) of every function whose spans it owns.
LAYERS = {
    "cli.parse": [
        ("cli", "main"), ("diagrams", "parse_diagram"), ("diagrams", "braid_closure"),
        ("dskein", "parse_family"),
    ],
    "cli.format": [
        ("rings", "poly_to_text"), ("rings", "poly_to_json"),
        ("rings", "LaurentPoly.to_text"), ("rings", "LaurentPoly.to_json"),
        ("rings", "RatFunc.to_text"), ("rings", "RatFunc.to_json"),
        ("rings", "DeltaSeries.to_text"), ("rings", "DeltaSeries.to_json"),
    ],
    "diagrams.canonical_key": [("diagrams", "canonical_key"), ("diagrams", "reverse_all")],
    "diagrams.faces": [("diagrams", "faces")],
    "diagrams.reduce": [
        ("diagrams", "curl_sign"), ("diagrams", "strip_curl"),
        ("diagrams", "bigon_reductions"), ("diagrams", "strip_bigon"),
    ],
    "diagrams.branch": [
        ("diagrams", "first_bad_crossing"), ("diagrams", "switched"),
        ("diagrams", "smoothed"), ("diagrams", "oriented_smoothed"),
        ("diagrams", "self_writhes"),
    ],
    "diagrams.split": [("diagrams", "connected_parts"), ("diagrams", "subdiagram")],
    "diagrams.cable": [
        ("diagrams", "cable2"), ("diagrams", "homfly_adjoint_expansion"),
        ("diagrams", "kauffman_adjoint_expansion"),
        ("diagrams", "kauffman_projector_coefficients"),
    ],
    "homfly": [
        ("homfly", "HomflyEngine.p"), ("homfly", "homfly_p"), ("homfly", "framed_h"),
        ("homfly", "h_adjoint"), ("homfly", "v2"),
    ],
    "kauffman": [
        ("kauffman", "KauffmanEngine.value"), ("kauffman", "kauffman_lambda"),
        ("kauffman", "k_adjoint"), ("kauffman", "kauf_alpha_eq_s_check"),
        ("kauffman", "kauf_derivative_at_s"),
    ],
    "kauffman.dubval": [
        ("kauffman", "DubVal." + m)
        for m in ("__init__", "__add__", "__sub__", "__mul__", "ratfunc", "const", "loops")
    ],
    "rings.laurent_mul": [
        ("rings", "LaurentPoly." + m) for m in ("__mul__", "__rmul__", "__pow__")
    ],
    "rings.laurent_add": [
        ("rings", "LaurentPoly." + m)
        for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
    ],
    "rings.laurent_new": [
        ("rings", "LaurentPoly." + m) for m in ("__init__", "const", "var")
    ],
    "rings.poly_gcd": [("rings", "poly_gcd")],
    "rings.ratfunc": [
        ("rings", "RatFunc." + m)
        for m in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__eq__")
    ] + [
        ("rings", "exact_divide"), ("rings", "exact_div_linear"),
        ("rings", "substitute_equal"), ("rings", "specialize"),
    ],
    "rings.series": [
        ("rings", "series_exp_v"), ("rings", "limit_order2_at_v1"), ("rings", "psi_series"),
    ],
    "dskein": [("dskein", "i_value"), ("dskein", "torus_value"), ("dskein", "qtilde")],
}

_MISSING = object()


class CountingMemo(dict):
    """An engine memo that counts ``get`` lookups and the hits among them."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = dict.get(self, key, _MISSING)
        if value is _MISSING:
            return default
        self.hits += 1
        return value


class Tracer:
    def __init__(self):
        self.span_names = []                 # span name id -> "module.qualname"
        self.span_name = array("H")
        self.parent = array("i")
        self.invocation_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.invocation = -1
        self.counts = Counter()              # nodes, memo, probe and hit counters
        self.max_cable_crossings = 0
        self._engines = []
        self._restore = []

    # ---- installation ----

    def install(self, modules):
        """Wrap every function named in LAYERS; ``modules`` maps short names to modules."""
        for layer_funcs in LAYERS.values():
            for mod_name, qualname in layer_funcs:
                self._wrap(modules, mod_name, qualname)
        homfly, kauffman = modules["homfly"], modules["kauffman"]
        for cls in (homfly.HomflyEngine, kauffman.KauffmanEngine):
            self._patch(cls, "__init__", self._engine_init(cls.__init__))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, modules, mod_name, qualname):
        module = modules[mod_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self._span(qualname, mod_name, raw.__func__)))
            else:
                self._patch(owner, attr, self._span(qualname, mod_name, raw))
            return
        original = getattr(module, qualname)
        wrapper = self._span(qualname, mod_name, original)
        for other in modules.values():
            for name, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, name, wrapper)

    def _span(self, qualname, mod_name, fn):
        nid = len(self.span_names)
        self.span_names.append(f"{mod_name}.{qualname}")
        observe = self._observer(qualname)
        span_name, parent, inv_of = self.span_name, self.parent, self.invocation_of
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        # The span covers the wrapper's own bookkeeping, so that cost is
        # charged to the called function and not to its caller's self time.
        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            inv_of.append(tracer.invocation)
            start.append(t0)
            end.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                stack.pop()
                end[idx] = clock()

        return traced

    def _observer(self, qualname):
        counts = self.counts
        if qualname == "HomflyEngine.p":
            def observe(args, result):
                counts["homfly.nodes"] += args[0].nodes
        elif qualname == "KauffmanEngine.value":
            def observe(args, result):
                counts["kauffman.nodes"] += args[0].nodes
        elif qualname in ("curl_sign", "strip_bigon"):
            def observe(args, result):
                counts["reduce.hits"] += result is not None
        elif qualname == "cable2":
            def observe(args, result):
                self.max_cable_crossings = max(self.max_cable_crossings, len(result.crossings))
        else:
            return None
        return observe

    def _engine_init(self, original):
        engines = self._engines

        def init(engine, *args, **kwargs):
            original(engine, *args, **kwargs)
            engine.memo = CountingMemo()
            engines.append(engine)

        return init

    # ---- per invocation ----

    def begin_invocation(self, index):
        self.invocation = index

    def end_invocation(self):
        """Fold the memo counters of the engines this invocation created."""
        for engine in self._engines:
            prefix = "homfly" if type(engine).__name__ == "HomflyEngine" else "kauffman"
            self.counts[prefix + ".memo_entries"] += len(engine.memo)
            self.counts[prefix + ".memo_lookups"] += engine.memo.lookups
            self.counts[prefix + ".memo_hits"] += engine.memo.hits
        self._engines.clear()
        self.invocation = -1

    # ---- results ----

    def per_function(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        calls = [0] * len(self.span_names)
        incl = [0] * len(self.span_names)
        self_ns = [0] * len(self.span_names)
        for i in range(len(span_name)):
            nid = span_name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            incl[nid] += dur
            self_ns[nid] += dur
            if parent[i] >= 0:                  # the parent's self time excludes this child
                self_ns[span_name[parent[i]]] -= dur
        return {name: (calls[k], incl[k], self_ns[k]) for k, name in enumerate(self.span_names)}

    def layer_metrics(self):
        """The benchmark's per-layer metrics, each as (value, unit)."""
        fn = self.per_function()
        c = self.counts

        def calls(*names):
            return sum(fn[n][0] for n in names)

        def incl_s(*names):
            return sum(fn[n][1] for n in names) / 1e9

        def layer_self_s(layer):
            return sum(fn[f"{m}.{q}"][2] for m, q in LAYERS[layer]) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        nodes = c["homfly.nodes"] + c["kauffman.nodes"]
        probes = calls("diagrams.curl_sign", "diagrams.strip_bigon")
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = (layer_self_s(layer), "s")
        for name, func in (("canonical_key", "diagrams.canonical_key"),
                           ("faces", "diagrams.faces")):
            out[f"diagrams.{name}.calls"] = (calls(func), "count")
            out[f"diagrams.{name}.per_node"] = (ratio(calls(func), nodes), "calls/node")
        out["diagrams.reduce.probes"] = (probes, "count")
        out["diagrams.reduce.hit_ratio"] = (ratio(c["reduce.hits"], probes), "ratio")
        out["diagrams.cable.max_crossings"] = (self.max_cable_crossings, "count")
        for engine, public in (("homfly", "homfly.HomflyEngine.p"),
                               ("kauffman", "kauffman.KauffmanEngine.value")):
            n = c[engine + ".nodes"]
            out[engine + ".nodes"] = (n, "count")
            out[engine + ".memo_entries"] = (c[engine + ".memo_entries"], "count")
            out[engine + ".memo_hit_ratio"] = (
                ratio(c[engine + ".memo_hits"], c[engine + ".memo_lookups"]), "ratio")
            out[engine + ".us_per_node"] = (ratio(incl_s(public) * 1e6, n), "us")
        for short in ("laurent_mul", "laurent_add", "laurent_new", "poly_gcd"):
            funcs = (f"{m}.{q}" for m, q in LAYERS["rings." + short])
            out[f"rings.{short}.calls"] = (calls(*funcs), "count")
        out["dskein.i_value.calls"] = (calls("dskein.i_value"), "count")
        out["dskein.torus_value.calls"] = (calls("dskein.torus_value"), "count")
        out["trace.spans"] = (len(self.span_name), "count")
        return out

    def write_spans(self, path):
        """Write the spans: a JSON header line, then the five raw int arrays."""
        header = {"names": self.span_names, "count": len(self.span_name),
                  "columns": [["name", "H"], ["parent", "i"], ["invocation", "i"],
                              ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.parent, self.invocation_of,
                           self.start, self.end):
                column.tofile(fh)
