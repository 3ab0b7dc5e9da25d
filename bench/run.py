"""The switchrd benchmark: one command, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Inputs are generated from the seed (``inputs.py``) into ``.bench_work``,
which is removed at the end.

Times are reported at a fixed machine speed. The shared machines this runs
on change speed by up to half over minutes, and every op slows with them, so
raw times from runs a few minutes apart differ by more than any change worth
gating. Each op is therefore bracketed by timings of a fixed pure-Python
block (``reference.py``), and each time the benchmark reports is the
measured time scaled by ``REFERENCE_S`` over the block's bracketing time:
seconds on a machine that runs the block in ``REFERENCE_S``. The run record
(the ``#`` line) also gives the raw measured figures.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters, run one after another, of
  ``import switchrd`` plus ``load_problem`` of every file the workload uses,
  each scaled by reference timings taken in the same interpreter;
* ``wall_s``: the time of the workload's fixed op list, the sum of its ops'
  scaled latencies, as a mean over the run's passes;
* ``op_p50_s`` and ``op_tail_s``: median scaled op latency over every op of
  every pass, and the highest percentile that leaves at least 10 ops beyond
  it in the two passes every run makes. The percentile is fixed by the op
  count, so a run that fits a third pass reports the same quantile; it is
  printed with the sample count;
* ``solved_per_s``: ops per pass that exited as expected and passed their
  reference check, divided by ``wall_s``;
* ``solved_frac``: solved ops over attempted ops, i.e. one minus the
  failure fraction (a metric the benchmark gates must never be 0, and the
  failure fraction is 0 on two of the workloads);
* ``peak_rss_mb``: peak resident memory of the workload process.

The ops run in one warmed worker process with one BLAS/OpenMP thread
(``worker.py``); the timed passes repeat for ``--seconds``, at least twice.
``--trace 1`` runs an untraced worker and a traced one for half the time
each, at least one pass each, and prints
the per-layer metrics: ``<layer>.<function>.<stat>`` per pass from the spans
(``tracing.py``), the ``import.*`` split from fresh ``-X importtime``
interpreters, and ``trace.overhead_frac`` from the two workers' scaled walls.
Per-layer times are raw measured seconds.

An op fails when it exits with another code than expected (0, or 2 for a
target generated to be infeasible), when a library call raises, or when its
reference check (``checks.py``) rejects the answer. Every failure counts in
``failed``. ``correct`` is false when an answer was wrong: a rejected
answer, an unexpected exit code, or a crash. Exit code 4, the CLI's
documented refusal when a solver's iteration budget runs out, is a failure
but not a wrong answer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

#: One thread for every numeric library, so a run measures one core's work.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 5
IMPORT_RUNS = 3
TAIL_BEYOND = 10
MIN_PASSES = 2
#: Whole-run limit for the worker processes, inside the 180 s a run may take.
WORKER_LIMIT_S = 150.0
#: The reference block's time at the speed every reported time is scaled to.
REFERENCE_S = 0.002
#: Reference timings on each side of a setup probe; their median is used.
SETUP_REFERENCE_RUNS = 5

#: Prints the set-up time and the median reference time before and after it.
_SETUP_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "from reference import median_reference\n"
    f"before = median_reference({SETUP_REFERENCE_RUNS})\n"
    "t = time.perf_counter()\n"
    "import switchrd\n"
    "for path in sys.argv[1:]:\n"
    "    switchrd.load_problem(path)\n"
    "t = time.perf_counter() - t\n"
    f"print(t, before, median_reference({SETUP_REFERENCE_RUNS}))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "solved_per_s": "1/s", "solved_frac": "ratio", "peak_rss_mb": "MB",
}


def _env(root: str) -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _python(args, env, timeout) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout, check=True,
                          capture_output=True, text=True)


def measure_setup(files, env) -> list[tuple[float, float]]:
    """(raw set-up time, bracketing reference time) per fresh interpreter."""
    runs = []
    for _ in range(SETUP_RUNS):
        out = _python(["-c", _SETUP_PROBE, *files], env, 60).stdout
        t, before, after = map(float, out.split())
        runs.append((t, (before + after) / 2))
    return runs


def measure_imports(env) -> dict[str, float]:
    """Median over fresh interpreters of the ``-X importtime`` split: the
    cumulative time of ``switchrd`` and the summed self time of every module
    of scipy, numpy and yaml."""
    runs = []
    for _ in range(IMPORT_RUNS):
        err = _python(["-X", "importtime", "-c", "import switchrd"], env, 60).stderr
        split = {"switchrd_s": 0.0, "scipy_s": 0.0, "numpy_s": 0.0, "yaml_s": 0.0}
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue  # the header, or a line the program printed
            self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            top = name.partition(".")[0]
            if name == "switchrd":
                split["switchrd_s"] = cum_us / 1e6
            elif top in ("scipy", "numpy", "yaml"):
                split[f"{top}_s"] += self_us / 1e6
        runs.append(split)
    return {f"import.{key}": statistics.median(r[key] for r in runs) for key in runs[0]}


def run_worker(ops_path, workdir, seconds, min_passes, env, traced,
               deadline) -> tuple[dict, list]:
    tag = "traced" if traced else "plain"
    result_path = os.path.join(workdir, f"result_{tag}.json")
    args = [os.path.join(HERE, "worker.py"), ops_path, result_path, str(seconds),
            str(min_passes)]
    spans_path = os.path.join(workdir, "spans.json")
    if traced:
        args.append(spans_path)
    _python(args, env, max(1.0, deadline - time.monotonic()))
    with open(result_path) as fh:
        result = json.load(fh)
    spans = []
    if traced:
        with open(spans_path) as fh:
            spans = json.load(fh)
    return result, spans


def _scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def op_times(result) -> list[list[float]]:
    """Scaled latency of every op, one list per pass."""
    recs = result["ops"]
    return [[_scaled(rec["lat"][i], rec["ref"][i]) for rec in recs]
            for i in range(len(result["walls"]))]


def op_walls(times) -> list[float]:
    return [sum(pass_) for pass_ in times]


def end_to_end(ops, result, setup) -> tuple[dict, dict, dict]:
    verdict = checks.judge(ops, result)
    times = op_times(result)
    passes = len(times)
    wall = statistics.mean(op_walls(times))
    lat = sorted(x for pass_ in times for x in pass_)
    raw = sorted(x for rec in result["ops"] for x in rec["lat"])
    n = len(lat)
    tail_pct = 100.0 * (1.0 - TAIL_BEYOND / (MIN_PASSES * len(ops)))
    tail_index = n - 1 - n * TAIL_BEYOND // (MIN_PASSES * len(ops))
    metrics = {
        "setup_s": statistics.median(_scaled(t, ref) for t, ref in setup),
        "wall_s": wall,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[tail_index],
        "solved_per_s": verdict["solved"] / passes / wall,
        "solved_frac": verdict["solved"] / verdict["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    refs = [ref for rec in result["ops"] for ref in rec["ref"]]
    record = {"passes": passes, "pass_walls_s": [round(w, 3) for w in result["walls"]],
              "ops_per_pass": len(ops), "op_samples": n,
              "tail_percentile": round(tail_pct, 2), "tail_ops_beyond": n - 1 - tail_index,
              "fail_frac": 1.0 - metrics["solved_frac"],
              "raw": {"setup_s": statistics.median(t for t, _ in setup),
                      "wall_s": sum(raw) / passes, "op_p50_s": statistics.median(raw),
                      "op_tail_s": raw[tail_index],
                      "reference_median_s": statistics.median(refs)}}
    return metrics, verdict, record


#: Per-layer stats read straight from the aggregated spans.
LAYER_STATS = {
    "rate_distortion.rates_at_distortion_batch": ("calls", "rows", "s", "fail"),
    "rate_distortion.rate_at_distortion": ("calls", "s", "fail"),
    "rate_distortion.rd_curve": ("calls", "s", "fail"),
    "optimizer.maximize_over_region": ("calls", "s", "self_s", "evals"),
    "optimizer.maximize_over_hull": ("calls", "s", "self_s", "evals"),
    "region.beta_table": ("calls", "s"),
    "region.realizable_subsets": ("calls", "s"),
    "region.enumerate_constraints": ("calls", "s"),
    "strategy.synthesize_rule": ("calls", "s", "self_s"),
    "region.is_member": ("calls", "s"),
    "strategy._apply_rule": ("calls", "s"),
    "game_sim.simulate_game": ("calls", "s", "self_s"),
    "game_sim.build_covering_codebook": ("calls", "s", "codewords"),
    "game_sim.best_response_distortion": ("calls", "s"),
    "problem.load_problem": ("calls", "s"),
}

LAYER_UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s", "fail": "count",
               "evals": "count", "codewords": "count", "infeasible": "count",
               "s_per_row": "s", "evals_per_call": "count", "us_per_call": "us",
               "trials_per_s": "1/s", "hull_share": "ratio", "overhead_frac": "ratio",
               "switchrd_s": "s", "scipy_s": "s", "numpy_s": "s", "yaml_s": "s"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(spans, passes: int, plain_wall: float, traced_wall: float,
              imports: dict) -> dict:
    """Per-pass layer metrics; the two walls are scaled, spans raw."""
    agg = tracing.aggregate(spans)
    metrics = dict(imports)

    def get(name, stat):
        return agg.get(name, {}).get(stat, 0) / passes

    for name, stats in LAYER_STATS.items():
        for stat in stats:
            metrics[f"{name}.{stat}"] = get(name, stat)
    batch = "rate_distortion.rates_at_distortion_batch"
    metrics[f"{batch}.s_per_row"] = _ratio(get(batch, "s"), get(batch, "rows"))
    for name in ("optimizer.maximize_over_region", "optimizer.maximize_over_hull"):
        metrics[f"{name}.evals_per_call"] = _ratio(get(name, "evals"), get(name, "calls"))
    hull, region = get("optimizer.maximize_over_hull", "s"), \
        get("optimizer.maximize_over_region", "s")
    metrics["optimizer.hull_share"] = _ratio(hull, hull + region)
    metrics["strategy.synthesize_rule.infeasible"] = get(
        "strategy.synthesize_rule", "raised.InfeasibleError")
    metrics["region.is_member.us_per_call"] = 1e6 * _ratio(
        get("region.is_member", "s"), get("region.is_member", "calls"))
    metrics["game_sim.simulate_game.trials_per_s"] = _ratio(
        get("game_sim.simulate_game", "trials"), get("game_sim.simulate_game", "s"))
    metrics["cli.main.self_s"] = get("cli.main", "self_s")
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return metrics


def _unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name.rpartition(".")[2]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + WORKER_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "switchrd", "__init__.py")):
        print("bench: run from a checkout root holding src/switchrd", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    env = _env(root)
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        ops = [asdict(op) for op in inputs.build(args.workload, args.seed, workdir)]
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w") as fh:
            json.dump(ops, fh)
        files = sorted({op["ctx"]["path"] for op in ops})
        if args.trace:
            imports = measure_imports(env)
            plain, _ = run_worker(ops_path, workdir, args.seconds / 2, 1, env, False,
                                  deadline)
            traced, spans = run_worker(ops_path, workdir, args.seconds / 2, 1, env, True,
                                       deadline)
            metrics = per_layer(spans, len(traced["walls"]),
                                statistics.mean(op_walls(op_times(plain))),
                                statistics.mean(op_walls(op_times(traced))), imports)
            verdicts = [checks.judge(ops, plain), checks.judge(ops, traced)]
            record = {"traced_passes": len(traced["walls"]), "spans": len(spans)}
        else:
            setup = measure_setup(files, env)
            result, _ = run_worker(ops_path, workdir, args.seconds, MIN_PASSES, env, False,
                                   deadline)
            metrics, verdict, record = end_to_end(ops, result, setup)
            verdicts = [verdict]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted = sum(v["attempted"] for v in verdicts)
    solved = sum(v["solved"] for v in verdicts)
    wrong = sorted({w for v in verdicts for w in v["wrong_ops"]})
    record.update({"workload": args.workload, "seed": args.seed, "base_seed": inputs.BASE_SEED,
                   "ops_per_pass": len(ops), "threads": THREADS,
                   "refused": sum(v["refused"] for v in verdicts)})
    print("# " + json.dumps(record, sort_keys=True))
    for line in wrong:
        print(f"# wrong answer: {line}")
    for name in sorted({r for v in verdicts for r in v["refused_ops"]}):
        print(f"# refused (exit {checks.REFUSED}): {name}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": attempted - solved,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
