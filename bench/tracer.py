"""Outside-in tracer for the levychaos modules.

The tracer wraps the package's module-level functions from outside, without
touching the package source.  Each wrapper is installed on every name a
caller looks the function up by: ``levychaos.evaluate.power_increments`` as
well as ``levychaos.paths.power_increments``, ``levychaos.taylor.reconstruct``
as well as ``levychaos.evaluate.reconstruct``.  Wrappers keep a stack of open
spans, so a layer's self time is its spans' time minus the time of the
wrapped calls made inside them.

Not wrapped, because they run so often that a wrapper would distort the
traced run: every ``levychaos.timepoly`` method (more than 1e5 calls per
op) and the per-number ``scalar_to_json`` / ``scalar_from_json``.  Their
cost shows in the self time of the layer that calls them.

A span's layer is the module that defines the function, except that the
serializers (``*_to_json_dict``, ``*_to_json``, ``*_csv_rows`` and the CLI's
JSON/CSV text helpers) belong to ``cli``: they are the serialization stage
of a command.
"""

from __future__ import annotations

import importlib
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LAYERS = ("paths", "evaluate", "chaos", "combinatorics", "ortho", "models", "taylor", "cli")
UNWRAPPED = {("chaos", "scalar_to_json"), ("chaos", "scalar_from_json")}
PRIVATE_WRAPPED = {("cli", "_atomic_write"), ("cli", "_json_text"), ("cli", "_csv_text")}
SERIALIZER_SUFFIXES = ("_to_json_dict", "_to_json", "_csv_rows")
SERIALIZER_NAMES = {"_json_text", "_csv_text"}

# Function groups whose time or calls are metrics; nested calls inside the
# same group are counted once, at the outermost call.
GROUPS = {
    ("paths", "simulate_grid"): "sample",
    ("paths", "sample_terminal_increments"): "sample",
    ("paths", "random_jump_path"): "sample",
    ("paths", "make_jump_path"): "sample",
    ("chaos", "expand"): "expand",
    ("chaos", "expand_from_moments"): "expand",
    ("chaos", "jamshidian_expand"): "expand",
    ("chaos", "c_poly_recursive"): "c_poly",
    ("chaos", "c_poly_closed"): "c_poly",
    ("cli", "_atomic_write"): "write",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rational_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return 0


# Hooks see (tracer, args, kwargs, result) after a successful traced call.
def _hook_power_increments(tr, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    tr.keep.append(path)  # pins id(path) for the rest of the op
    tr.op_sets["power_increments"].add((id(path), _arg(args, kwargs, 1, "i")))


def _hook_simulate_grid(tr, args, kwargs, result):
    tr.counts["paths.steps"] += result.steps


def _hook_eval_grid(tr, args, kwargs, result):
    tr.counts["evaluate.grid_level_steps"] += len(result.theta) * (len(result.series) - 1)


def _hook_eval_exact(tr, args, kwargs, result):
    bits = _rational_bits(result)
    if bits > tr.counts["evaluate.exact_rational_bits_max"]:
        tr.counts["evaluate.exact_rational_bits_max"] = bits


def _hook_c_poly(tr, args, kwargs, result):
    mv = _arg(args, kwargs, 1, "mv")
    tr.op_sets["c_poly"].add((_arg(args, kwargs, 0, "k"), mv.m, mv.sigma2))


def _hook_index_set(tr, args, kwargs, result):
    tr.counts["combinatorics.tuples"] += len(result)


def _hook_taylor_terms(tr, args, kwargs, result):
    tr.counts["taylor.terms"] += len(result)


def _hook_atomic_write(tr, args, kwargs, result):
    tr.counts["cli.out_bytes"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


HOOKS = {
    ("paths", "power_increments"): _hook_power_increments,
    ("paths", "simulate_grid"): _hook_simulate_grid,
    ("evaluate", "eval_grid"): _hook_eval_grid,
    ("evaluate", "eval_exact"): _hook_eval_exact,
    ("chaos", "c_poly_recursive"): _hook_c_poly,
    ("chaos", "c_poly_closed"): _hook_c_poly,
    ("combinatorics", "index_set"): _hook_index_set,
    ("taylor", "taylor_terms"): _hook_taylor_terms,
    ("cli", "_atomic_write"): _hook_atomic_write,
}


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, the (module, attribute) names it needs, value function).
# A metric whose names are gone is reported as missing, never as zero.
_LAYER_METRICS = {
    "paths.power_increments_s": ("s", [("paths", "power_increments"), ("evaluate", "power_increments")],
                                 lambda t: t.incl["paths.power_increments"]),
    "paths.power_increments.calls": ("count", [("paths", "power_increments"), ("evaluate", "power_increments")],
                                     lambda t: t.calls["paths.power_increments"]),
    "paths.power_increments.useful_ratio": ("ratio", [("paths", "power_increments"), ("evaluate", "power_increments")],
                                            lambda t: _ratio(t.distinct["power_increments"],
                                                             t.calls["paths.power_increments"])),
    "paths.sample_s": ("s", [("paths", "simulate_grid")], lambda t: t.group_s["sample"]),
    "paths.steps": ("count", [("paths", "simulate_grid")], lambda t: t.counts["paths.steps"]),
    "evaluate.eval_grid_s": ("s", [("evaluate", "eval_grid")], lambda t: t.incl["evaluate.eval_grid"]),
    "evaluate.eval_grid.calls": ("count", [("evaluate", "eval_grid")], lambda t: t.calls["evaluate.eval_grid"]),
    "evaluate.grid_level_steps": ("count", [("evaluate", "eval_grid")],
                                  lambda t: t.counts["evaluate.grid_level_steps"]),
    "evaluate.eval_exact_s": ("s", [("evaluate", "eval_exact")], lambda t: t.incl["evaluate.eval_exact"]),
    "evaluate.eval_exact.calls": ("count", [("evaluate", "eval_exact")], lambda t: t.calls["evaluate.eval_exact"]),
    "evaluate.exact_rational_bits_max": ("bits", [("evaluate", "eval_exact")],
                                         lambda t: t.counts["evaluate.exact_rational_bits_max"]),
    "chaos.expand.calls": ("count", [("chaos", "expand"), ("chaos", "expand_from_moments")],
                           lambda t: t.group_calls["expand"]),
    "chaos.pi_coeff.calls": ("count", [("chaos", "pi_coeff")], lambda t: t.calls["chaos.pi_coeff"]),
    "chaos.c_poly.calls": ("count", [("chaos", "c_poly_recursive")], lambda t: t.group_calls["c_poly"]),
    "chaos.c_poly.useful_ratio": ("ratio", [("chaos", "c_poly_recursive")],
                                  lambda t: _ratio(t.distinct["c_poly"], t.group_calls["c_poly"])),
    "combinatorics.tuples": ("count", [("combinatorics", "index_set")],
                             lambda t: t.counts["combinatorics.tuples"]),
    "ortho.calls": ("count", [("ortho", "orthogonalize")], lambda t: t.entries["ortho"]),
    "models.moments.calls": ("count", [("models", "moments")], lambda t: t.calls["models.moments"]),
    "taylor.reconstruct.calls": ("count", [("taylor", "reconstruct")], lambda t: t.calls["@taylor.reconstruct"]),
    "taylor.terms": ("count", [("taylor", "taylor_terms")], lambda t: t.counts["taylor.terms"]),
    "cli.serialize_s": ("s", [("cli", "_json_text"), ("cli", "_csv_text")], lambda t: t.group_s["serialize"]),
    "cli.write_s": ("s", [("cli", "_atomic_write")], lambda t: t.group_s["write"]),
    "cli.out_bytes": ("bytes", [("cli", "_atomic_write")], lambda t: t.counts["cli.out_bytes"]),
}
METRICS = {}
for _layer in LAYERS:
    METRICS.update((k, v) for k, v in _LAYER_METRICS.items() if k.startswith(_layer + "."))
    METRICS[f"{_layer}.self_s"] = ("s", [], lambda t, _l=_layer: t.self_s[_l])
    METRICS[f"{_layer}.errors"] = ("count", [], lambda t, _l=_layer: t.errors[_l])

# The metrics that must repeat exactly across two traced runs at one seed.
COUNT_METRICS = tuple(
    name for name, (unit, _, _) in METRICS.items()
    if unit in ("count", "bytes", "bits", "ratio")
)


def _is_serializer(name: str) -> bool:
    return name in SERIALIZER_NAMES or name.endswith(SERIALIZER_SUFFIXES)


def _layer_of(module: str, name: str) -> str:
    return "cli" if _is_serializer(name) else module


def _group_of(module: str, name: str):
    return "serialize" if _is_serializer(name) else GROUPS.get((module, name))


class Tracer:
    """Spans and counts for the ops run inside :meth:`op`."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"levychaos.{name}") for name in LAYERS}
        self.modules["levychaos"] = importlib.import_module("levychaos")
        self.targets = self._find_targets()
        self.missing = sorted({
            f"levychaos.{mod}.{attr}"
            for _, needs, _ in METRICS.values()
            for mod, attr in needs
            if not hasattr(self.modules[mod], attr)
        })
        self.stack: list = []
        self.self_s: Counter = Counter()
        self.incl: Counter = Counter()
        self.calls: Counter = Counter()
        self.entries: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.group_s: Counter = Counter()
        self.group_calls: Counter = Counter()
        self.group_depth: Counter = Counter()
        self.distinct: Counter = Counter()
        self.op_sets: dict = defaultdict(set)
        self.keep: list = []

    def _find_targets(self) -> dict:
        """function object -> (layer, key, group, hook), for every function to wrap."""
        targets = {}
        for module in LAYERS:
            for name, fn in vars(self.modules[module]).items():
                if not isinstance(fn, types.FunctionType) or fn.__module__ != f"levychaos.{module}":
                    continue
                if (module, name) in UNWRAPPED:
                    continue
                if name.startswith("_") and (module, name) not in PRIVATE_WRAPPED:
                    continue
                targets[fn] = (_layer_of(module, name), f"{module}.{name}", _group_of(module, name),
                               HOOKS.get((module, name)))
        return targets

    def _wrap(self, fn, layer, key, group, hook, site):
        tr = self

        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            outer = group is not None and tr.group_depth[group] == 0
            if group is not None:
                tr.group_depth[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0] != layer:
                    tr.errors[layer] += 1
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                tr.self_s[layer] += dur - frame[1]
                tr.incl[key] += dur
                tr.calls[key] += 1
                tr.calls[site] += 1
                if parent is None or parent[0] != layer:
                    tr.entries[layer] += 1
                if parent is not None:
                    parent[1] += dur
                if group is not None:
                    tr.group_depth[group] -= 1
                    if outer:
                        tr.group_s[group] += dur
                        tr.group_calls[group] += 1
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _install(self) -> list:
        undo = []
        for modname, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                spec = self.targets.get(value) if isinstance(value, types.FunctionType) else None
                if spec is None:
                    continue
                setattr(module, attr, self._wrap(value, *spec, f"@{modname}.{attr}"))
                undo.append((module, attr, value))
        return undo

    @contextmanager
    def op(self):
        """Trace everything the enclosed op calls; wrappers exist only inside."""
        undo = self._install()
        try:
            yield
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)
            for name, seen in self.op_sets.items():
                self.distinct[name] += len(seen)
            self.op_sets.clear()
            self.keep.clear()
            self.stack.clear()
            self.group_depth.clear()

    def metrics(self) -> dict:
        """Every per-layer metric; a missing one has value None."""
        out = {}
        for name, (unit, needs, value) in METRICS.items():
            gone = any(f"levychaos.{mod}.{attr}" in self.missing for mod, attr in needs)
            out[name] = {"value": None if gone else value(self), "unit": unit}
        return out
