import csv
import io
from pathlib import Path

import pytest

from switchrd.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
# each shipped file with its alphabet size and a target inside its span
SHIPPED = [("binary_pair.yaml", 2, "0.1"), ("ternary_demo.yaml", 3, "0.2")]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, list(csv.reader(io.StringIO(out)))


@pytest.mark.parametrize("name, k, target", SHIPPED)
def test_rd_curve(capsys, name, k, target):
    p = ",".join([f"1/{k}"] * k)
    code, rows = run(capsys, "rd", PROBLEMS / name, "--p", p, "--curve", 11)
    assert code == 0
    assert rows[0] == ["D", "R"]
    assert len(rows) == 12
    rates = [float(r[1]) for r in rows[1:]]
    assert rates[-1] == 0.0
    assert all(a >= b - 1e-7 for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("name, k, target", SHIPPED)
def test_optimize_at_one_distortion(capsys, name, k, target):
    code, rows = run(capsys, "optimize", PROBLEMS / name, "--distortion", target)
    assert code == 0
    assert rows[0] == ["D", "R_tilde", "R_star"] + [f"p_{i}" for i in range(k)] + [
        "method"
    ]
    assert len(rows) == 2
    r_tilde, r_star = float(rows[1][1]), float(rows[1][2])
    assert r_tilde >= r_star - 1e-6


def test_malformed_source_exits_3(capsys):
    code, _ = run(
        capsys, "rd", PROBLEMS / "binary_pair.yaml", "--p", "1/2,x", "--curve", 11
    )
    assert code == 3
