"""Span tracing of the signedkn layers, installed from outside the package.

Every public function of the layer modules is replaced, in every layer
module that binds it, by a wrapper that records a span (name, start, end,
parent, tag).  Tree construction is traced as graphs.Tree, which counts
the validations.  Nothing under src/ changes; uninstall() restores the
original bindings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("graphs", "spectra", "balance", "perturb", "search", "cli")


def _eigen_tag(args, kwargs):
    return args[0].n


def _enumerate_tag(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "generate")
    return (method, args[0])


# Spans that also record a tag: the matrix size of a solve, and the route
# and n of an enumeration.
TAGS = {
    "spectra.eigen_decompose": _eigen_tag,
    "search.enumerate_tree_classes": _enumerate_tag,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, tag)
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock, tag = self.spans, self._stack, time.perf_counter, TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag(args, kwargs) if tag else None)

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"signedkn.{layer}") for layer in LAYERS}
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))
        tree = modules["graphs"].Tree
        original = tree.__post_init__
        tree.__post_init__ = self._wrap("graphs.Tree", original)
        self._patched.append((tree, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, accepted_moves: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one traced pass as name -> (value, unit, samples)."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        calls[name] += 1
        self_s[name] += t

    solves_by_n: dict[int, list[float]] = defaultdict(list)
    enum_self: dict[str, list[float]] = defaultdict(list)
    prufer_time = prufer_sequences = 0
    climb_evals = 0
    in_climb = [False] * len(spans)
    for i, ((name, start, end, parent, tag), t) in enumerate(zip(spans, own)):
        in_climb[i] = name == "perturb.hill_climb" or (parent >= 0 and in_climb[parent])
        if name == "spectra.eigen_decompose":
            solves_by_n[tag].append(end - start)
            climb_evals += in_climb[i]
        elif name == "search.enumerate_tree_classes":
            method, n = tag
            enum_self[method].append(t)
            if method == "prufer":
                prufer_time += end - start
                prufer_sequences += n ** (n - 2)

    def count(name):
        return (calls[name], "count", calls[name])

    def stat(name):
        return (self_s[name], "s", calls[name])

    def per_call_us(n):
        d = solves_by_n.get(n, [])
        return (1e6 * sum(d) / len(d) if d else 0.0, "us", len(d))

    return {
        "spectra.eigen_decompose.calls": count("spectra.eigen_decompose"),
        "spectra.eigen_decompose.self_s": stat("spectra.eigen_decompose"),
        "spectra.eigen_decompose.us_per_call.n12": per_call_us(12),
        "spectra.eigen_decompose.us_per_call.n16": per_call_us(16),
        "spectra.adjacency_matrix.self_s": stat("spectra.adjacency_matrix"),
        "search.enumerate_tree_classes.calls": count("search.enumerate_tree_classes"),
        "search.enumerate.generate.self_s": (sum(enum_self["generate"]), "s", len(enum_self["generate"])),
        "search.enumerate.prufer.self_s": (sum(enum_self["prufer"]), "s", len(enum_self["prufer"])),
        "search.prufer.ns_per_sequence": (
            1e9 * prufer_time / prufer_sequences if prufer_sequences else 0.0, "ns", prufer_sequences
        ),
        "search.verify_max_index.self_s": stat("search.verify_max_index"),
        "search.double_star_chain.self_s": stat("search.double_star_chain"),
        "graphs.canonical_code.calls": count("graphs.canonical_code"),
        "graphs.canonical_code.self_s": stat("graphs.canonical_code"),
        "graphs.prufer_encode.self_s": stat("graphs.prufer_encode"),
        "graphs.prufer_decode.self_s": stat("graphs.prufer_decode"),
        "graphs.tree_validations": count("graphs.Tree"),
        "graphs.tree_validations.self_s": stat("graphs.Tree"),
        "perturb.hill_climb.self_s": stat("perturb.hill_climb"),
        "perturb.accept_ratio": (accepted_moves / climb_evals if climb_evals else 0.0, "ratio", climb_evals),
        "balance.is_balanced.self_s": stat("balance.is_balanced"),
        "balance.find_negative_triangle.self_s": stat("balance.find_negative_triangle"),
        "cli.run.self_s": stat("cli.run"),
    }
