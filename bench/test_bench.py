"""Fast tests of the benchmark itself: run ``python3 -m pytest bench -q`` from
the repository root."""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import asdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

from switchrd import cli  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _ops(workload, tmp_path, seed=3):
    return [asdict(op) for op in inputs.build(workload, seed, str(tmp_path / workload))]


def _snapshot(workload, workdir, seed):
    ops = [asdict(op) for op in inputs.build(workload, seed, str(workdir))]
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    return repr(ops).replace(str(workdir), "<dir>"), files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    first = _snapshot(workload, tmp_path / "a", 11)
    assert _snapshot(workload, tmp_path / "b", 11) == first
    assert _snapshot(workload, tmp_path / "c", 12) != first


def _run(op) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(op["argv"]) == op["expect_exit"]
    return out.getvalue()


def _pick(ops, check, name_part=""):
    return next(op for op in ops if op["check"] == check and name_part in op["name"])


def _replace_line(text, index, new):
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def test_rd_check_rejects_a_raised_rate(tmp_path):
    op = _pick(_ops("worst_case", tmp_path), "rd", "binary_pair")
    text = _run(op)
    assert checks.check(op, text) is None
    d, r = text.splitlines()[3].split(",")
    assert checks.check(op, _replace_line(text, 3, f"{d},{float(r) + 1e-3}")) is not None


def test_rd_check_rejects_an_increasing_curve(tmp_path):
    op = _pick(_ops("worst_case", tmp_path), "rd", "wc_k3")
    op = dict(op, argv=op["argv"][:-1] + ["4"])
    text = _run(op)
    assert checks.check(op, text) is None
    d, _ = text.splitlines()[-1].split(",")
    assert checks.check(op, _replace_line(text, -1, f"{d},5")) is not None


def test_optimize_check_rejects_a_wrong_value_and_an_outside_argmax(tmp_path):
    op = _pick(_ops("worst_case", tmp_path), "optimize", "binary_pair")
    text = _run(op)
    assert checks.check(op, text) is None
    header, row = text.splitlines()
    fields = row.split(",")
    lowered = list(fields)
    lowered[1] = repr(float(fields[1]) - 0.01)
    assert checks.check(op, header + "\n" + ",".join(lowered) + "\n") is not None
    outside = list(fields)
    outside[3:5] = ["0.999", "0.001"]
    assert checks.check(op, header + "\n" + ",".join(outside) + "\n") is not None


def test_region_list_check_rejects_a_wrong_bound(tmp_path):
    op = _pick(_ops("region_scale", tmp_path), "region_list", "rational")
    text = _run(op)
    assert checks.check(op, text) is None
    mask, symbols, _ = text.splitlines()[5].split(",", 2)
    assert checks.check(op, _replace_line(text, 5, f"{mask},{symbols},1/3")) is not None


def test_region_check_rejects_a_wrong_verdict(tmp_path):
    ops = _ops("region_scale", tmp_path)
    member = _pick(ops, "region_check", "member 0 rs_k8_m3.yaml")
    outside = _pick(ops, "region_check", "outside 0 rs_k8_m3.yaml")
    assert checks.check(member, _run(member)) is None
    text = _run(outside)
    assert checks.check(outside, text) is None
    assert checks.check(outside, "MEMBER\n") is not None
    assert checks.check(member, text) is not None
    dropped = "\n".join(text.splitlines()[1:]) + "\n"
    assert checks.check(outside, dropped) is not None


def test_synthesize_check_rejects_a_perturbed_rule_and_a_false_certificate(tmp_path):
    ops = _ops("region_scale", tmp_path)
    feasible = _pick(ops, "synthesize", "mixture rs_k8_m2_joint")
    text = _run(feasible)
    assert checks.check(feasible, text) is None
    # move 1e-6 of mass between two symbols of a two-symbol offered set
    row = next(i for i, line in enumerate(text.splitlines())
               if int(line.split(":")[0]).bit_count() == 2)
    mask, probs = text.splitlines()[row].split(":")
    values = [float(x) for x in probs.split()]
    i, j = checks._members(int(mask))
    shift = 1e-6 if values[i] >= 1e-6 else -1e-6
    values[i] -= shift
    values[j] += shift
    perturbed = _replace_line(text, row, mask + ": " + " ".join(repr(v) for v in values))
    assert checks.check(feasible, perturbed) is not None

    infeasible = _pick(ops, "synthesize", "point rs_k8_m2_joint")
    text = _run(infeasible)
    assert checks.check(infeasible, text) is None
    full = "{" + ",".join(str(i) for i in range(8)) + "}"
    assert checks.check(infeasible, f"INFEASIBLE V={full} lhs=1 rhs=1\n") is not None


def test_simulate_check_rejects_an_off_simplex_type(tmp_path):
    op = _pick(_ops("game_desk", tmp_path), "simulate", "binary_pair")
    argv = list(op["argv"])
    argv[argv.index("--n") + 1], argv[argv.index("--trials") + 1] = "50", "20"
    op = dict(op, argv=argv)
    text = _run(op)
    assert checks.check(op, text) is None
    lines = text.splitlines()
    lines[-1] = "empirical_type=0.6 0.6"
    assert checks.check(op, "\n".join(lines) + "\n") is not None
    lines[-1] = "empirical_type=0.5005 0.4995"
    assert checks.check(op, "\n".join(lines) + "\n") is not None


def test_best_response_check_rejects_a_wrong_value(tmp_path):
    op = _pick(_ops("game_desk", tmp_path), "best_response")
    latency, code, text = worker._run_op(op, None, worker._library_args(op))
    assert code == 0 and checks.check(op, text) is None
    head, rest = text.split(" ", 1)
    assert checks.check(op, f"{float(head) + 0.5} {rest}") is not None
    assert checks.check(op, f"-1.0 {rest}") is not None


def test_tracer_wraps_cross_module_bindings_only():
    tracer = tracing.Tracer()
    wrapped = tracer.install()
    try:
        for name in ("optimizer.rates_at_distortion_batch", "game_sim.is_member",
                     "game_sim._apply_rule", "strategy.beta_table", "cli.load_problem"):
            assert name in wrapped
        assert not any(name.endswith(("Distribution", "d_min")) for name in wrapped)
        assert all(name.split(".")[0] in tracing.LAYERS for name in wrapped)
    finally:
        tracer.uninstall()
    from switchrd import optimizer, rate_distortion

    assert optimizer.rates_at_distortion_batch is rate_distortion.rates_at_distortion_batch


def test_traced_self_times_sum_to_at_most_the_traced_wall(tmp_path):
    ops = [op for op in _ops("worst_case", tmp_path) if "binary_pair" in op["name"]]
    ops += [op for op in _ops("region_scale", tmp_path) if "rs_k8_m3.yaml" in op["name"]]
    tracer = tracing.Tracer()
    result = worker.run(ops, 0.0, 1, tracer)
    spans = tracer.spans
    assert {"cli.main", "optimizer.maximize_over_region",
            "rate_distortion.rates_at_distortion_batch"} <= {s[2] for s in spans}
    self_s = tracing.self_times(spans)
    assert min(self_s) >= 0.0
    assert sum(self_s) <= sum(result["walls"])
    roots = [s for s in spans if s[1] < 0]
    assert len(roots) == len(ops)
    assert sum(self_s) == pytest.approx(sum(s[4] - s[3] for s in roots))


def test_every_op_sample_has_a_bracketing_reference_time(tmp_path):
    ops = [op for op in _ops("region_scale", tmp_path) if "rs_k8_m2_joint" in op["name"]]
    result = worker.run(ops, 0.0, 2, None)
    times = run.op_times(result)
    assert len(times) == len(result["walls"]) == 2
    for rec, scaled in zip(result["ops"], zip(*times)):
        assert len(rec["ref"]) == len(rec["lat"]) == 2 and min(rec["ref"]) > 0
        for lat, ref, value in zip(rec["lat"], rec["ref"], scaled):
            assert value == pytest.approx(lat * run.REFERENCE_S / ref)
