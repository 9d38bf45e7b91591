"""Span tracing placed from outside the library.

The library is not modified: the tracer rebinds module attributes and
`EnvTrajectory` methods to thin wrappers for the duration of a traced rep,
then restores them.  Names the package imports into other modules (for
example `dynaperc.cli.sample_env`) are rebound at each import site.

Each span records a name, a start, an end and its parent.  Spans are kept in
memory; self time (duration minus the time covered by child spans) and call
counts are aggregated as spans close, and the raw spans are written out once
at exit.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Optional

_clock = time.perf_counter


def _n_vertices(args) -> str:
    """State count N of a call whose first argument is an env or a graph."""
    try:
        a = args[0]
        return str(getattr(a, "graph", a).n_vertices)
    except (IndexError, AttributeError):
        return "?"


# (module, attribute, span name, tag(args) -> str or None)
# A tag splits a span name by a property of the call: `name@tag`.
HOOKS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("dynaperc.cli", "main", "cli.main", None),
    ("dynaperc.dist", "quenched_mixing_time", "dist.quenched_mixing_time", None),
    ("dynaperc.dist", "hitting_time_stats", "dist.hitting_time_stats", None),
    ("dynaperc.cli", "sample_env", "dynenv.sample_env", None),
    ("dynaperc.dist", "sample_env", "dynenv.sample_env", None),
    ("dynaperc.dynenv", "sample_env", "dynenv.sample_env", None),
    ("dynaperc.dynenv.EnvTrajectory", "flip_events", "dynenv.flip_events", None),
    ("dynaperc.dynenv.EnvTrajectory", "open_mask_at", "dynenv.open_mask_at", None),
    ("dynaperc.walk", "quenched_tv_curve", "walk.quenched_tv_curve", _n_vertices),
    ("dynaperc.walk", "exact_hitting_profile", "walk.exact_hitting_profile", _n_vertices),
    ("dynaperc.walk", "step_matrix", "walk.step_matrix", _n_vertices),
    ("dynaperc.evoset", "step_law", "evoset.step_law", None),
    ("dynaperc.evoset", "doob_step_law", "evoset.doob_step_law", None),
    ("dynaperc.evoset", "propagate_set_law", "evoset.propagate_set_law", None),
    ("dynaperc.evoset", "doob_z_bound_check", "evoset.doob_z_bound_check", None),
    ("dynaperc.evoset", "psi_step_count", "evoset.psi_step_count", None),
    ("dynaperc.evoset", "psi_profile_kernels", "expansion.psi_profile_kernels", None),
    ("dynaperc.envlab", "theorem_2_1_check", "envlab.theorem_2_1_check", None),
    ("dynaperc.envlab", "variant_chain", "envlab.variant_chain", None),
    ("dynaperc.envlab", "profile_phi_env", "expansion.profile_phi_env", None),
    ("dynaperc.envlab", "integral_mixing_bound", "expansion.integral_mixing_bound", None),
    ("dynaperc.expansion", "profile_phi_kernels", "expansion.profile_phi_kernels", None),
    ("dynaperc.torus", "iso_profile", "torus.iso_profile", _n_vertices),
]


def _resolve(path: str):
    """Module or class object for a dotted path such as `pkg.mod.Class`."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls, None)


class Tracer:
    """In-memory span recorder with running self-time aggregation.

    `self_s` and `calls` are keyed by span name, or by `name@tag` for tagged
    hooks; `counters` holds totals read from call results.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, start, child time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = _clock()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([idx, start, 0.0])

    def close(self, key: str) -> None:
        end = _clock()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.self_s[key] = self.self_s.get(key, 0.0) + dur - child
        self.calls[key] = self.calls.get(key, 0) + 1

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    # -- hooks --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, tag: Optional[Callable]) -> Callable:
        tr = self
        observe = _OBSERVERS.get(name)

        def traced(*args, **kw):
            parent = tr.parent_name() if observe else None
            key = name if tag is None else f"{name}@{tag(args)}"
            tr.open(name)
            try:
                out = fn(*args, **kw)
            finally:
                tr.close(key)
            if observe:
                observe(tr, args, kw, out, parent)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every hooked name to a traced wrapper."""
        wrapped: dict[int, Callable] = {}
        for path, attr, name, tag in HOOKS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                if f"{path}.{attr}" not in self.missing:
                    self.missing.append(f"{path}.{attr}")
                continue
            # one function bound under several names shares one wrapper
            w = wrapped.get(id(fn)) or self._wrap(name, fn, tag)
            wrapped[id(fn)] = w
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, w)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write the raw spans: one `name,parent,start,end` line per span."""
        with open(path, "w") as fh:
            fh.write("name,parent,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{names[self.span_name[i]]},{self.span_parent[i]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")


# -- counters read from call results -------------------------------------------

def _obs_sample_env(tr: Tracer, args, kw, env, parent) -> None:
    tr.count("dynenv.flips_sampled", sum(len(e.flip_times) for e in env.edges))


def _obs_profile(tr: Tracer, args, kw, out, parent) -> None:
    # profile_phi_env(R, kernels, pi) and *_profile_kernels(kernels, pi)
    pi = kw["pi"] if "pi" in kw else args[-1]
    tr.count("expansion.subsets", (1 << len(pi)) - 1)


def _obs_propagate(tr: Tracer, args, kw, out, parent) -> None:
    laws, pruned = out
    tr.count("evoset.set_law_entries", sum(len(law) for law in laws))
    tr.count("evoset.pruned_mass", pruned)


def _obs_doob_law(tr: Tracer, args, kw, out, parent) -> None:
    if parent == "envlab.theorem_2_1_check":
        tr.count("envlab.law_misses", 1)


_OBSERVERS = {
    "dynenv.sample_env": _obs_sample_env,
    "evoset.propagate_set_law": _obs_propagate,
    "evoset.doob_step_law": _obs_doob_law,
    "expansion.psi_profile_kernels": _obs_profile,
    "expansion.profile_phi_env": _obs_profile,
    "expansion.profile_phi_kernels": _obs_profile,
}
