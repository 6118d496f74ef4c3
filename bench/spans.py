"""Span recorder for the traced benchmark run.

Spans are recorded only here, around calls into the public functions of each
`modint` layer; the program itself carries no instrumentation. A `Tracer`
replaces every binding of a wrapped function in the loaded `modint` modules
(so names that one layer imports from another are timed too), keeps spans and
counters in memory, and puts the original objects back on `uninstall`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    `spans` holds (name, start, end, parent_index, op_id) tuples. A span's self time
    is its duration minus the part of [start, end] that its direct children
    cover, so overlapping or out-of-bounds children are not subtracted twice.
    """
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[name] += (end - start) - covered
    return dict(out)


def _size(a) -> int:
    return int(np.size(a))


class Tracer:
    """In-memory spans and counters around wrapped `modint` callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.op: int | None = None  # id of the benchmark op being run
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append((name, self.clock(), 0.0, parent, self.op))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            n, start, _, p, op = self.spans[idx]
            self.spans[idx] = (n, start, self.clock(), p, op)

    def wrap(self, fn, name: str, count=None):
        """A wrapper recording a span `name`; `count(tracer, args, kwargs)` adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self, args, kwargs)
            return self.call(name, fn, args, kwargs)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, targets):
        """Wrap each (owner, attr, span name, counter) target.

        A module-level function is replaced in every loaded `modint` module
        that binds it; a class attribute is replaced on the class.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "modint" or k.startswith("modint.")]
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, count)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def install_counter(self, owner, attr: str, count):
        """Replace `owner.attr` by a wrapper that only counts (no span)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            count(self, args, kwargs)
            return original(*args, **kwargs)

        wrapper.__wrapped_by_tracer__ = True
        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        return {"self_s": self_times(self.spans), "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# the layer boundaries of modint


def _count_amplitude(t, args, kwargs):
    t.counters["states.amplitude_points"] += _size(args[1])


def _count_joint_density(t, args, kwargs):
    # the sampler evaluates the target density once per proposal batch
    if t.inside("sampling.sample_measurements") and not t.inside("states.joint_density"):
        t.counters["sampling.proposals"] += _size(args[1])


def _count_sample(t, args, kwargs):
    t.counters["sampling.sample_measurements.calls"] += 1
    t.counters["sampling.records"] += int(args[2])


def _count_discretize(t, args, kwargs):
    state, grid = args[0], args[1]
    terms = getattr(state, "terms", None)
    if terms and len(terms[0]) == 3:  # two-particle: one array per particle and term
        t.counters["states.discretize.points"] += 2 * len(terms) * grid.points
    else:
        t.counters["states.discretize.points"] += grid.points


def _count_calls(counter: str):
    def count(t, args, kwargs):
        t.counters[counter] += 1

    return count


def _count_split(t, args, kwargs):
    if not t.inside("modvar.split"):
        t.counters["modvar.split.points"] += _size(args[0])


def _count_fft(t, args, kwargs):
    if t.inside("grids."):
        t.counters["grids.fft_calls"] += 1
        t.counters["grids.fft_points"] += _size(args[0])


def modint_targets():
    """(owner, attribute, span name, counter) for every traced layer boundary."""
    from modint import criterion, dynamics, grids, modvar, sampling, spectral, states

    return [
        (sampling, "estimate_criterion", "sampling.estimate_criterion", None),
        (sampling, "sample_measurements", "sampling.sample_measurements", _count_sample),
        (states.WavePacket, "position_amplitude", "states.amplitude", _count_amplitude),
        (states.WavePacket, "momentum_amplitude", "states.amplitude", _count_amplitude),
        (states, "joint_position_density", "states.joint_density", _count_joint_density),
        (states, "joint_momentum_density", "states.joint_density", _count_joint_density),
        (states, "state_from_descriptor", "states.state_from_descriptor", None),
        (states, "discretize", "states.discretize", _count_discretize),
        (grids, "observable_stats", "grids.observable_stats", _count_calls("grids.observable_stats.calls")),
        (criterion, "evaluate_criterion", "criterion.evaluate_criterion", None),
        (criterion, "robustness_threshold", "criterion.robustness_threshold", None),
        (criterion, "visibility_of_admixture", "criterion.visibility_of_admixture", None),
        (spectral, "solve_c", "spectral.solve_c", _count_calls("spectral.solve_c.calls")),
        (spectral, "brute_force_c", "spectral.brute_force_c", None),
        (dynamics, "protocol_visibility", "dynamics.protocol_visibility", None),
        (dynamics, "free_propagate", "dynamics.free_propagate", None),
        (dynamics, "fit_fringe_visibility", "dynamics.fit_fringe_visibility", None),
        (modvar, "modular_part", "modvar.split", _count_split),
        (modvar, "integer_part", "modvar.split", _count_split),
    ]


def install_modint(tracer: Tracer):
    """Wrap the layer boundaries of an imported `modint` and numpy's FFTs."""
    tracer.install(modint_targets())
    tracer.install_counter(np.fft, "fft", _count_fft)
    tracer.install_counter(np.fft, "ifft", _count_fft)
