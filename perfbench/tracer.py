"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of the qcartan layers in each
``qcartan.*`` namespace that holds it (``from .numerics import nullspace``
binds the same function object into ``decomp``, ``sps`` and ``asympt``), and
a few methods on their classes.  ``uninstall`` puts the originals back, so
an untraced pass runs with no wrapper at all.

A span is (name, start, end, parent, run id); spans stay in memory until
``write``.  A layer's self time is a span's duration minus the time its
child spans cover.  Functions of ``qcore`` are scalar helpers called
millions of times, so they are counted but get no span; their time stays in
the caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("qcore", "numerics", "repn", "decomp", "braiding", "sps", "asympt",
          "qda", "gtcg", "cli")
COUNT_ONLY = {"qcore"}
# class -> methods wrapped; __init__ is reported under the class name.
METHODS = {
    ("sps", "CartanChain"): ("__init__", "pair_isometry", "right_isometry",
                             "lowest_vector", "coassociativity_residual",
                             "certify_coassociativity"),
    ("sps", "GeneralWeightBuilder"): ("fundamental", "module"),
}
# Named groups of spans that one metric sums over.
GROUPS = {
    "decomp.extreme_weight_space": ("decomp.highest_weight_space",
                                    "decomp.lowest_weight_space"),
    "asympt.decay": ("asympt.commutator_decay", "asympt.vacuum_limits",
                     "asympt.compactification_defect",
                     "asympt.compactification_table"),
    "qda.residual_tables": ("qda.q_arveson_residuals",
                            "qda.cuntz_pimsner_residual"),
    "sps.shift_ops": ("sps.creation", "sps.annihilation", "sps.right_creation",
                      "sps.level_projector", "sps.psi", "sps.theta",
                      "sps.eq_comm_residual"),
    "cli.report": ("cli.write_report",),
}


def _tensor_counts(args, kwargs, out):
    # Generator storage of the product: 2(N-1) dense d x d matrices.
    d, item = out.dim, out.dtype.itemsize
    return {"out_dim_sum": d, "bytes": 2 * (out.N - 1) * d * d * item}


def _norm_elems(args, kwargs, out):
    return {"elems": int(np.size(args[0]))}


def _submodule_dim(args, kwargs, out):
    return {"out_dim_sum": out[0].dim}


def _store_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


def _load_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


# span name -> counts taken from (args, kwargs, result) after a call
COUNTERS = {
    "repn.tensor": _tensor_counts,
    "numerics.operator_norm": _norm_elems,
    "decomp.generate_submodule": _submodule_dim,
    "cli.store_chain": _store_bytes,
    "cli.load_chain": _load_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.runs: list = []
        self.counts: dict = {}        # run id -> key -> n
        self.run_id = 0
        self._current = None          # counts of the current run
        self.chain_dtypes: dict = {}   # "lam q M" -> work dtype name
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)

    def start_run(self, run_id: int) -> None:
        self.run_id = run_id
        self._current = self.counts.setdefault(run_id, defaultdict(int))

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self._current[key] += n

    def _exception(self, exc: BaseException) -> None:
        from qcartan.numerics import AmbiguousRank
        if isinstance(exc, AmbiguousRank) and not getattr(exc, "_traced", False):
            exc._traced = True
            self.count("numerics.ambiguous_rank.raised")

    def _spanned(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._exception(exc)
                raise
            finally:
                self.close(idx)
            self.count(name + ".calls")
            if name == "sps.CartanChain":   # __init__: the chain is args[0]
                self._chain_built(args[0])
            if counter is not None:
                for key, n in counter(args, kwargs, out).items():
                    self.count(f"{name}.{key}", n)
            return out

        return wrapper

    def _chain_built(self, chain) -> None:
        wide = chain.work_dtype != np.float64
        self.count("sps.CartanChain.wide_builds", int(wide))
        key = f"lam={chain.lam.coords} q={chain.q:g} M={chain.M}"
        self.chain_dtypes[key] = chain.work_dtype.name

    def _counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._current[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _pair_isometry(self, fn):
        inner = self._spanned("sps.pair_isometry", fn)

        @functools.wraps(fn)
        def wrapper(chain, k, l):
            cache = chain._pair_cache
            cached = (k, l) in cache
            out = inner(chain, k, l)
            if not cached and (k, l) in cache:
                self.count("sps.pair_isometry.misses")
            return out

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qcartan.{name}")
                   for name in LAYERS}
        wrapped = {}   # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                make = self._counted if layer in COUNT_ONLY else self._spanned
                wrapped[id(obj)] = make(f"{layer}.{attr}", obj)
        namespaces = list(modules.values()) + [importlib.import_module("qcartan")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                if meth == "pair_isometry":
                    wrapper = self._pair_isometry(fn)
                else:
                    label = cls_name if meth == "__init__" else meth
                    wrapper = self._spanned(f"{layer}.{label}", fn)
                self._patch(cls, meth, wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def run_stats(self, run_id: int) -> dict:
        """Self seconds per span name, their sum and the counts of one run."""
        child = defaultdict(float)
        for i, p in enumerate(self.parents):
            if self.runs[i] == run_id and p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s = defaultdict(float)
        total = 0.0
        for i, name in enumerate(self.names):
            if self.runs[i] != run_id:
                continue
            s = self.ends[i] - self.starts[i] - child[i]
            self_s[name] += s
            total += s
        return {"self_s": dict(self_s), "self_sum": total,
                "counts": dict(self.counts.get(run_id, {}))}

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent, run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, round(self.starts[i] - t0, 9),
                                     round(self.ends[i] - t0, 9),
                                     self.parents[i], self.runs[i]]) + "\n")


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values (time or count) from one run's stats."""
    self_s, counts = stats["self_s"], stats["counts"]
    out = {}
    for name, s in self_s.items():
        out[f"{name}.self_s"] = s
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + s
    for group, members in GROUPS.items():
        out[f"{group}.self_s"] = sum(self_s.get(m, 0.0) for m in members)
        out[f"{group}.calls"] = sum(counts.get(m + ".calls", 0) for m in members)
    out.update(counts)
    calls = counts.get("sps.pair_isometry.calls", 0)
    misses = counts.get("sps.pair_isometry.misses", 0)
    out["sps.pair_isometry.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    return out
