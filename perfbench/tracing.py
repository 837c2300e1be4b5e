"""Outside-in tracing of the sconvex layers.

The tracer wraps the public functions of each layer module by rebinding
their names in every ``sconvex.*`` namespace that holds them: the modules
import each other with ``from .automata import ...``, so patching only the
defining module would miss the callers in ``harness``, ``classify`` and
``cli``.  Nothing under ``src/`` changes; ``uninstall`` restores the
original bindings.

Each call becomes one span (name, start, end, parent, op id, work counts),
kept in memory and written out when the run ends.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("automata", "transformations", "triples", "classify", "witnesses",
          "harness", "cli")

# Work counts read from a call's arguments and result:
# span name -> {measure: f(args, result)}.
MEASURES = {
    "automata.determinize": {"states_out": lambda a, r: r.n},
    "automata.minimize": {"states_in": lambda a, r: a[0].n,
                          "states_out": lambda a, r: r.n},
    "automata.parse": {"bytes_in": lambda a, r: len(a[0])},
    "cli.main": {"exit_nonzero": lambda a, r: int(r != 0)},
    "transformations.closure": {"elements": lambda a, r: len(r)},
    "triples.monotone_transformations": {
        "candidates": lambda a, r: a[0].n ** a[0].n,
        "kept": lambda a, r: len(r)},
    "triples.maximal_semigroup": {
        "candidates": lambda a, r: a[0].n ** a[0].n,
        "kept": lambda a, r: len(r)},
}

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _metrics():
    """Every per-layer metric as (name, unit), as BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _targets():
    """(span name, owner, attribute) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"sconvex.{layer}")
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            out.append((f"{layer}.{attr}", mod, attr))
    automata = importlib.import_module("sconvex.automata")
    out.append(("automata.dfa_validate", automata.Dfa, "__post_init__"))
    out.append(("automata.parse", automata, "_parse_dfa"))
    out.append(("automata.emit", automata.Dfa, "to_text"))
    out.append(("automata.emit", automata, "_dfa_dot"))
    return out


class Tracer:
    """Span recorder; install() wraps the layers, uninstall() unwraps them.

    A span is the list [name, start_ns, end_ns, parent index, op id,
    counts or None].  ``op`` is set by the runner before each operation.
    """

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._stack = []
        self._bindings = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn):
        measures = MEASURES.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if measures is not None:
                rec[5] = {m: f(args, result) for m, f in measures.items()}
            return result

        return traced

    def _plan(self):
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "sconvex" or key.startswith("sconvex.")]
        bindings = []
        for name, owner, attr in _targets():
            fn = vars(owner)[attr]
            wrapped = self._wrap(name, fn)
            bindings.append((owner, attr, fn, wrapped))
            if inspect.isclass(owner):
                continue
            for mod in namespaces:
                for key, value in vars(mod).items():
                    if value is fn and mod is not owner:
                        bindings.append((mod, key, fn, wrapped))
        return bindings

    def install(self):
        if not self._bindings:
            self._bindings = self._plan()
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn, _ in reversed(self._bindings):
            setattr(owner, attr, fn)

    def write(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('["name","start_ns","end_ns","parent","op","counts"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _span_times(spans):
    """Per span: (self ns, counts toward total_s).  total_s skips spans
    nested inside a span of the same name, so recursion is not double
    counted."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    outer = []
    for rec in spans:
        p = rec[3]
        while p >= 0 and spans[p][0] != rec[0]:
            p = spans[p][3]
        outer.append(p < 0)
    return [(rec[2] - rec[1] - child[i], outer[i]) for i, rec in enumerate(spans)]


def _aggregate(spans):
    """Sum calls, self, total and counts per pass and for the set-up.

    Returns {pass number or "setup": ({span name: {measure: value}},
    {layer: self ns})}.
    """
    buckets = {}
    for rec, (self_ns, outer) in zip(spans, _span_times(spans)):
        op = rec[4]
        per, layers = buckets.setdefault(op if op == "setup" else op[0], ({}, {}))
        d = per.setdefault(rec[0], {"calls": 0, "self_ns": 0, "total_ns": 0})
        d["calls"] += 1
        d["self_ns"] += self_ns
        if outer:
            d["total_ns"] += rec[2] - rec[1]
        if rec[5]:
            for m, v in rec[5].items():
                d[m] = d.get(m, 0) + v
        layer = rec[0].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + self_ns
    return buckets


def _pass_values(per, layers, metrics):
    values = {}
    for name, _ in metrics:
        head, _, measure = name.rpartition(".")
        if name == "trace.overhead" or head.startswith("setup."):
            continue
        if head in LAYERS and measure == "self_s":
            values[name] = layers.get(head, 0) / 1e9
            continue
        d = per.get(head, {})
        if measure in ("self_s", "total_s"):
            values[name] = d.get(measure[:-2] + "_ns", 0) / 1e9
        elif measure == "kept_ratio":
            cand = d.get("candidates", 0)
            values[name] = d.get("kept", 0) / cand if cand else 0.0
        else:
            values[name] = d.get(measure, 0)
    return values


def per_layer_metrics(spans, passes, overhead):
    """Per-layer metrics: the median over the traced passes of each
    per-pass value, plus set-up self time per layer and the overhead."""
    metrics = _metrics()
    buckets = _aggregate(spans)
    per_pass = [_pass_values(*buckets.get(p, ({}, {})), metrics) for p in passes]
    setup_layers = buckets.get("setup", ({}, {}))[1]
    out = {}
    for name, unit in metrics:
        if name == "trace.overhead":
            value = overhead
        elif name.startswith("setup."):
            value = setup_layers.get(name.split(".")[1], 0) / 1e9
        else:
            value = statistics.median_low(v[name] for v in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out
