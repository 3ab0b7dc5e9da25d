"""Spans at the boundaries between switchrd's modules.

``Tracer.install()`` replaces every function that one traced module binds
from another (``optimizer.rates_at_distortion_batch``,
``game_sim.is_member``, the ``cli`` imports, ...) with a wrapper that records
a span named ``<defining module>.<function>``. A module's calls to its own
functions are not wrapped, and ``probcore`` and ``errors`` get no spans:
their cost falls into the caller's self time. The benchmark's own direct
calls go through ``Tracer.call``.

Spans are kept in memory as ``[id, parent, name, t0, t1, error, extra]`` and
written out when the run ends; ``aggregate`` derives inclusive and self time
(a span's duration minus the part of it its children cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "problem", "rate_distortion", "optimizer", "region", "strategy",
          "game_sim")


def _batch_rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _evaluations(args, kwargs, result):
    return {"evals": result.evaluations}


def _trials(args, kwargs, result):
    return {"trials": kwargs["trials"] if "trials" in kwargs else args[5]}


def _codewords(args, kwargs, result):
    return {"codewords": result.size}


#: Counts taken from a call's arguments or result, per span name.
PROBES = {
    "rate_distortion.rates_at_distortion_batch": _batch_rows,
    "optimizer.maximize_over_region": _evaluations,
    "optimizer.maximize_over_hull": _evaluations,
    "game_sim.simulate_game": _trials,
    "game_sim.build_covering_codebook": _codewords,
}


class Tracer:
    """Collects spans for one process; not thread-safe (the benchmark runs
    every op on one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [span_id, parent, name, 0.0, 0.0, None, None]
        self.spans.append(span)
        self._stack.append(span_id)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[4] = time.perf_counter()
            span[5] = type(exc).__name__
            raise
        else:
            span[4] = time.perf_counter()
            probe = PROBES.get(name)
            if probe is not None:
                span[6] = probe(args, kwargs, result)
            return result
        finally:
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap the cross-module bindings; returns the wrapped names as
        ``<binding module>.<name>``."""
        wrapped = []
        for layer in LAYERS:
            module = importlib.import_module(f"switchrd.{layer}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home == layer or home not in LAYERS:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{home}.{obj.__name__}", obj))
                wrapped.append(f"{layer}.{attr}")
        return wrapped

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for span_id, _, _, t0, t1, _, _ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(span_id, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive s, self_s, fail (raised), the count of
    each exception type, and the summed probe counts."""
    stats: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        _, _, name, t0, t1, error, extra = span
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0})
        entry["calls"] += 1
        entry["s"] += t1 - t0
        entry["self_s"] += self_s
        if error is not None:
            entry["fail"] += 1
            entry[f"raised.{error}"] = entry.get(f"raised.{error}", 0) + 1
        for key, value in (extra or {}).items():
            entry[key] = entry.get(key, 0) + value
    return stats
