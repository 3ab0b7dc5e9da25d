"""One workload process: warm up, then run the op list in timed passes.

Usage:
``python3 bench/worker.py OPS_JSON RESULT_JSON SECONDS MIN_PASSES [SPANS_JSON]``,
run from the checkout root with ``src`` on ``PYTHONPATH``. With a spans path
the run is traced (see ``tracing.py``) and the spans are written there at the
end. Outputs are only recorded here; ``checks.py`` judges them in the parent
process, outside the timed region.

Passes repeat while the last pass still fits in SECONDS, and at least
MIN_PASSES run.

The reference block (``reference.py``) is timed before the first op of each
pass and after every op, outside the ops' timed regions. Each op records
the mean of the two reference times that bracket it: the machine's speed at
the time the op ran, which ``run.py`` divides out.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import REFUSED  # noqa: E402
from reference import time_reference  # noqa: E402
from tracing import Tracer  # noqa: E402

import numpy as np  # noqa: E402

from switchrd import cli, game_sim, problem  # noqa: E402
from switchrd.errors import ConvergenceError, GuardError  # noqa: E402
from switchrd.game_sim import Codebook  # noqa: E402


def _library_args(op: dict):
    """Arrays for a best-response op, built before its timed call."""
    args = op["args"]
    d = problem.load_problem(args["problem"]).distortion
    words = np.array(args["words"], dtype=np.int64)
    return np.array(args["block"], dtype=np.int64), Codebook(words, words.shape[1]), d


def _call(tracer: Tracer | None, name: str, fn, *args):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


def _run_op(op: dict, tracer: Tracer | None, prepared) -> tuple[float, object, str]:
    """Run one op; returns (latency, exit code or exception name, output)."""
    if op["kind"] == "cli":
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = _call(tracer, "cli.main", cli.main, op["argv"])
        except Exception as exc:  # a crash is recorded as that op's outcome
            return time.perf_counter() - start, type(exc).__name__, ""
        return time.perf_counter() - start, code, out.getvalue()
    start = time.perf_counter()
    try:
        value, vec = _call(tracer, "game_sim.best_response_distortion",
                           game_sim.best_response_distortion, *prepared)
    except (GuardError, ConvergenceError):  # what the CLI reports as a refusal
        return time.perf_counter() - start, REFUSED, ""
    except Exception as exc:
        return time.perf_counter() - start, type(exc).__name__, ""
    latency = time.perf_counter() - start
    return latency, 0, repr(float(value)) + " " + " ".join(str(int(x)) for x in vec)


def run(ops: list[dict], seconds: float, min_passes: int, tracer: Tracer | None) -> dict:
    prepared = [_library_args(op) if op["kind"] == "best_response" else None for op in ops]
    if tracer is not None:
        tracer.install()
    # warm-up, untimed: the reference block and the first op of each check kind
    time_reference()
    seen = set()
    for op, prep in zip(ops, prepared):
        if op["check"] not in seen:
            seen.add(op["check"])
            _run_op(op, tracer, prep)
    if tracer is not None:
        tracer.spans.clear()
    records = [{"lat": [], "ref": [], "exit": [], "out": []} for _ in ops]
    outputs: list[list[str]] = [[] for _ in ops]
    walls = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        before = time_reference()
        for op, prep, rec, outs in zip(ops, prepared, records, outputs):
            latency, code, text = _run_op(op, tracer, prep)
            after = time_reference()
            if text not in outs:
                outs.append(text)
            rec["lat"].append(latency)
            rec["ref"].append((before + after) / 2)
            before = after
            rec["exit"].append(code)
            rec["out"].append(outs.index(text))
        walls.append(time.perf_counter() - start)
        if len(walls) >= min_passes and time.perf_counter() - begin + walls[-1] > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    for rec, outs in zip(records, outputs):
        rec["texts"] = outs
    return {
        "walls": walls,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    ops_path, result_path, seconds = argv[0], argv[1], float(argv[2])
    min_passes = int(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    with open(ops_path) as fh:
        ops = json.load(fh)
    tracer = Tracer() if spans_path else None
    result = run(ops, seconds, min_passes, tracer)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
