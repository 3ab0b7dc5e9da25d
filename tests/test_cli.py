import csv
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from switchrd import cli
from switchrd.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def h2(x):
    if x in (0, 1):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def binary_pair_r_star(target):
    # the hull of (2/3, 1/3) and (3/4, 1/4) peaks at (2/3, 1/3) under Hamming
    return max(h2(1 / 3) - h2(target), 0.0)


# each shipped file with its alphabet size, a target inside its span and the
# data row `optimize` prints there; the binary R* field is its closed form
SHIPPED = [
    pytest.param(
        "binary_pair.yaml", 2, "0.1", ["0.1", "0.531004406411", binary_pair_r_star(0.1),
                                       "0.5", "0.5", "grid"],
        id="binary_pair.yaml-2-0.1",
    ),
    pytest.param(
        "ternary_demo.yaml", 3, "0.2",
        "0.2,0.663034405834,0.56354720234,0.333333333333,0.333333333333,"
        "0.333333333333,grid".split(","),
        id="ternary_demo.yaml-3-0.2",
    ),
]


def assert_row(line, row):
    """A printed data row against its pin: bytes, except a float field,
    which must be within 1e-9."""
    fields = line.split(",")
    assert len(fields) == len(row)
    for got, want in zip(fields, row):
        if isinstance(want, float):
            assert float(got) == pytest.approx(want, abs=1e-9)
        else:
            assert got == want


def run_text(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def run(capsys, *argv):
    code, out = run_text(capsys, *argv)
    return code, list(csv.reader(io.StringIO(out)))


@pytest.mark.parametrize("name, k, target, row", SHIPPED)
def test_rd_curve(capsys, name, k, target, row):
    p = ",".join([f"1/{k}"] * k)
    code, rows = run(capsys, "rd", PROBLEMS / name, "--p", p, "--curve", 11)
    assert code == 0
    assert rows[0] == ["D", "R"]
    assert len(rows) == 12
    rates = [float(r[1]) for r in rows[1:]]
    assert rates[-1] == 0.0
    assert all(a >= b - 1e-7 for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("name, k, target, row", SHIPPED)
def test_optimize_at_one_distortion(capsys, name, k, target, row):
    code, out = run_text(capsys, "optimize", PROBLEMS / name, "--distortion", target)
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["D", "R_tilde", "R_star"] + [f"p_{i}" for i in range(k)] + [
        "method"
    ]
    assert len(rows) == 2
    r_tilde, r_star = float(rows[1][1]), float(rows[1][2])
    assert r_tilde >= r_star - 1e-6
    # the printed bytes are pinned: early exits in the rate batch change none
    assert_row(out.splitlines()[1], row)


def test_malformed_source_exits_3(capsys):
    code, _ = run(
        capsys, "rd", PROBLEMS / "binary_pair.yaml", "--p", "1/2,x", "--curve", 11
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["rd", "--p=-1e-10,1.0000000001", "--distortion", "0"],
        ["synthesize", "--target=-1e-10,1.0000000001"],
        ["simulate", "--target=-1e-10,1.0000000001", "--n", "5", "--trials", "5"],
        ["region", "--check=-1e-10,1.0000000001"],
    ],
    ids=["p", "synthesize-target", "simulate-target", "check"],
)
def test_exact_negative_vector_entry_exits_3(capsys, argv):
    # every CLI vector entry is read exactly, so -1e-10 is negative, not
    # float rounding noise
    code = main([argv[0], str(PROBLEMS / "binary_pair.yaml")] + argv[1:])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: distribution has a negative entry -1/10000000000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rd", "--p", "0.5,0.5", "--distortion=-1e-400"],
        ["optimize", "--distortion=-1e-400"],
        ["simulate", "--target", "0.7,0.3", "--n", "5", "--trials", "5", "--codebook-D=-1e-400"],
    ],
    ids=["rd", "optimize", "simulate-codebook"],
)
def test_exact_negative_distortion_target_exits_3(capsys, argv):
    # -1e-400 is read exactly, so it is negative, though as a float it
    # rounds to -0.0
    code = main([argv[0], str(PROBLEMS / "binary_pair.yaml")] + argv[1:])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: distortion target must be nonnegative\n"


@pytest.mark.parametrize(
    "literal, message",
    [
        (".nan", "cannot parse number nan"),
        ("1.0e+400", "cannot parse number inf"),
        ("1.0e400", "number '1.0e400' lies beyond the float range"),
    ],
)
def test_a_delta_no_float_holds_exits_3(capsys, tmp_path, literal, message):
    # YAML reads the first two as floats, nan and inf, and the third as an
    # exact string
    problem = tmp_path / "delta.yaml"
    text = (PROBLEMS / "binary_pair.yaml").read_text()
    problem.write_text(text.replace("delta: 0", f"delta: {literal}"))
    code = main(["region", str(problem), "--check", "0.5,0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: {message}\n"


#: The benchmark's four-symbol instance (three sources, 4-ary Hamming
#: distortion, delta 0), whose hull batches are the largest of its runs.
WC_K4_M3 = """\
alphabet_x: 4
alphabet_y: 4
mode: independent
delta: 0
sources:
  - [0.102231, 0.514738, 0.175252, 0.207779]
  - [0.104910, 0.065014, 0.655466, 0.174610]
  - [0.133652, 0.401393, 0.206629, 0.258326]
distortion:
  - [0, 1, 1, 1]
  - [1, 0, 1, 1]
  - [1, 1, 0, 1]
  - [1, 1, 1, 0]
"""


@pytest.mark.parametrize(
    "target, row",
    [
        ("0.239443", "0.239443,0.826379043677,0.749384417791,0.25,0.25,0.25,0.25,grid"),
        # the hull's lattice starts from the region's dual pair, and its line
        # searches from their iterate's
        ("0.508816", "0.508816,0.193769989727,0.128496018594,0.25,0.25,0.25,0.25,grid"),
    ],
)
def test_optimize_four_symbols_prints_pinned_bytes(capsys, tmp_path, target, row):
    problem = tmp_path / "wc_k4_m3.yaml"
    problem.write_text(WC_K4_M3)
    code, out = run_text(capsys, "optimize", problem, "--distortion", target)
    assert code == 0
    assert out == "D,R_tilde,R_star,p_0,p_1,p_2,p_3,method\n" + row + "\n"


def test_rd_curve_rising_within_its_certified_brackets_exits_0(capsys, tmp_path):
    # the rates of points 5 and 6 rise by 4.7e-7 bits, inside the 1e-6-bit
    # brackets that certify them
    problem = tmp_path / "rise.yaml"
    problem.write_text(
        "alphabet_x: 3\nalphabet_y: 3\nsources:\n  - [1/3, 1/3, 1/3]\ndistortion:\n"
        "  - [2.1405501046863082, 1.4843729558251335, 0.7384582836813961]\n"
        "  - [0.8454219065678339, 0.5178637500957962, 0.9883635282965217]\n"
        "  - [0.018563224158922864, 1.36129847768578, 2.347989578740571]\n"
    )
    code, rows = run(
        capsys, "rd", problem,
        "--p", "0.9999998545824277,7.270878618031988e-08,7.270878618031988e-08",
        "--curve", 11,
    )
    assert code == 0
    assert len(rows) == 12
    assert float(rows[6][1]) > float(rows[5][1]) + 1e-7


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["optimize", str(PROBLEMS / "binary_pair.yaml"), "--distortion", "0.1"]
    code, out = run_text(capsys, *argv)
    root = PROBLEMS.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "switchrd.cli", *argv], cwd=root, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert (code, proc.returncode) == (0, 0)
    assert proc.stdout == out


def test_region_list_binary_pair(capsys):
    code, out = run_text(capsys, "region", PROBLEMS / "binary_pair.yaml", "--list")
    assert code == 0
    assert out == 'subset_mask,symbols,rhs\n1,{0},1/2\n2,{1},1/12\n3,"{0,1}",1\n'


def test_region_list_ternary_demo(capsys):
    code, rows = run(capsys, "region", PROBLEMS / "ternary_demo.yaml", "--list")
    assert code == 0
    assert rows[0] == ["subset_mask", "symbols", "rhs"]
    assert [r[0] for r in rows[1:]] == [str(mask) for mask in range(1, 8)]
    assert [r[2] for r in rows[1:]] == ["3/10", "3/50", "16/25", "1/25", "14/25", "1/5", "1"]


@pytest.mark.parametrize(
    "point, expected",
    [
        (
            "1,0,0",
            "VIOLATION V={1} lhs=0 rhs=0.06\n"
            "VIOLATION V={2} lhs=0 rhs=0.04\n"
            "VIOLATION V={1,2} lhs=0 rhs=0.2\n",
        ),
        (".4,.3,.3", "MEMBER\n"),
    ],
)
def test_region_check(capsys, point, expected):
    code, out = run_text(capsys, "region", PROBLEMS / "ternary_demo.yaml", "--check", point)
    assert (code, out) == (0, expected)


def test_synthesize_infeasible_exits_2_with_certificate(capsys):
    code, out = run_text(
        capsys, "synthesize", PROBLEMS / "ternary_demo.yaml", "--target", "1,0,0"
    )
    assert (code, out) == (2, "INFEASIBLE V={1,2} lhs=0 rhs=0.2\n")


def test_synthesize_binary_pair(capsys):
    code, out = run_text(
        capsys, "synthesize", PROBLEMS / "binary_pair.yaml", "--target", "0.7,0.3"
    )
    assert (code, out) == (0, "1: 1 0\n2: 0 1\n3: 0.48 0.52\n")


def test_synthesize_ternary_demo(capsys):
    code, out = run_text(
        capsys, "synthesize", PROBLEMS / "ternary_demo.yaml", "--target", "0.55,0.25,0.2"
    )
    assert (code, out) == (
        0, "1: 1 0 0\n2: 0 1 0\n3: 0.5 0.5 0\n4: 0 0 1\n5: 0.5 0 0.5\n6: 0 0.5 0.5\n"
    )


def test_synthesis_accepts_exactly_the_targets_region_check_accepts(capsys):
    # 1e-10 short of Q({0}) = 1/2: within L1 1e-8 of the region, but outside
    # it by the subset test, which every subcommand now applies
    binary = PROBLEMS / "binary_pair.yaml"
    target = "0.4999999999,0.5000000001"
    assert run_text(capsys, "region", binary, "--check", target) == (
        0, "VIOLATION V={0} lhs=0.4999999999 rhs=0.5\n"
    )
    certificate = (2, "INFEASIBLE V={0} lhs=0.4999999999 rhs=0.5\n")
    assert run_text(capsys, "synthesize", binary, "--target", target) == certificate
    assert run_text(
        capsys, "simulate", binary, "--target", target, "--n", 20, "--trials", 10
    ) == certificate
    # the boundary point itself is attainable
    assert run_text(capsys, "region", binary, "--check", "0.5,0.5") == (0, "MEMBER\n")
    assert run_text(capsys, "synthesize", binary, "--target", "0.5,0.5") == (
        0, "1: 1 0\n2: 0 1\n3: 0 1\n"
    )


def test_attainable_target_with_a_negligible_offered_set_exits_0(capsys, tmp_path):
    # both sources offer symbol 1 with chance 1e-11, so {1} is on offer with
    # chance 1e-22: the target, their common law, is attainable
    row = "[99999999999/100000000000, 1/100000000000]"
    problem = tmp_path / "rare.yaml"
    problem.write_text(
        "alphabet_x: 2\nalphabet_y: 2\nmode: independent\ndelta: 0\n"
        f"sources:\n  - {row}\n  - {row}\n"
        "distortion:\n  - [0, 1]\n  - [1, 0]\n"
    )
    target = "99999999999/100000000000,1/100000000000"
    assert run_text(capsys, "region", problem, "--check", target) == (0, "MEMBER\n")
    assert run_text(capsys, "synthesize", problem, "--target", target)[0] == 0
    code, _ = run_text(
        capsys, "simulate", problem, "--target", target, "--n", 20, "--trials", 10
    )
    assert code == 0


@pytest.mark.parametrize(
    "option, value",
    [("--method", "grid"), ("--grid-step", "0.05"), ("--seed", "0"), ("--starts", "16")],
)
def test_optimize_has_no_search_method_options(capsys, option, value):
    # the parameter dimension alone picks the lattice or the multistart path,
    # and the multistart seeds are fixed
    code, out = run_text(
        capsys, "optimize", PROBLEMS / "binary_pair.yaml", "--distortion", "0.1",
        option, value,
    )
    assert (code, out) == (3, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--list"],
        ["synthesize", "--target", "0.7,0.3"],
        ["simulate", "--target", "0.7,0.3", "--n", 20, "--trials", 10],
    ],
)
@pytest.mark.parametrize("option", ["--ba-tol", "--bisect-tol", "--tol"])
def test_solver_tolerances_only_on_rate_subcommands(capsys, argv, option):
    command, *rest = argv
    code, out = run_text(
        capsys, command, PROBLEMS / "binary_pair.yaml", *rest, option, "1e-6"
    )
    assert (code, out) == (3, "")


RATE_COMMANDS = [
    ["rd", "--p", "1/2,1/2", "--distortion", "0.1"],
    ["optimize", "--distortion", "0.1"],
]


@pytest.mark.parametrize("argv", RATE_COMMANDS, ids=["rd", "optimize"])
@pytest.mark.parametrize(
    "option",
    # the retired --bisect-tol and --ba-tol are refused whatever their value
    ["--tol=0", "--tol=-1", "--tol=nan", "--tol=inf",
     "--bisect-tol=0", "--bisect-tol=-1", "--bisect-tol=nan",
     "--ba-tol=0", "--ba-tol=nan", "--ba-tol=inf"],
)
def test_solver_tolerance_that_is_not_finite_and_positive_exits_3(capsys, argv, option):
    command, *rest = argv
    code, out = run_text(capsys, command, PROBLEMS / "binary_pair.yaml", *rest, option)
    assert (code, out) == (3, "")


@pytest.mark.parametrize("argv", RATE_COMMANDS, ids=["rd", "optimize"])
@pytest.mark.parametrize("option", ["--ba-tol", "--bisect-tol"])
def test_retired_solver_tolerances_exit_3(capsys, argv, option):
    # one tolerance, --tol, bounds the certified bracket of every rate
    command, *rest = argv
    code, out = run_text(
        capsys, command, PROBLEMS / "binary_pair.yaml", *rest, option, "1e-6"
    )
    assert (code, out) == (3, "")


@pytest.mark.parametrize("variable", ["SWITCHRD_BA_TOL", "SWITCHRD_BISECT_TOL"])
def test_simulate_ignores_solver_tolerance_variables(capsys, monkeypatch, variable):
    # no subcommand reads a tolerance from the environment, only from its flags
    monkeypatch.setenv(variable, "x")
    argv = ["simulate", PROBLEMS / "binary_pair.yaml", "--target", "0.7,0.3",
            "--n", 20, "--trials", 50, "--seed", 1]
    code, out = run_text(capsys, *argv)
    assert code == 0
    assert "empirical_type=0.713 0.287" in out.splitlines()
    rd, optimize = ([cmd, PROBLEMS / "binary_pair.yaml", *rest] for cmd, *rest in RATE_COMMANDS)
    assert run_text(capsys, *rd) == (0, "D,R\n0.1,0.531004406411\n")
    code, out = run_text(capsys, *optimize)
    assert code == 0
    assert_row(out.splitlines()[1], SHIPPED[0].values[3])


def test_optimize_curve_binary_pair(capsys):
    code, rows = run(capsys, "optimize", PROBLEMS / "binary_pair.yaml", "--curve", 3)
    assert code == 0
    assert rows[0] == ["D", "R_tilde", "R_star", "p_0", "p_1", "method"]
    expected = [
        [0, 1, binary_pair_r_star(0), 0.5, 0.5],
        [0.25, 0.188721875541, binary_pair_r_star(0.25), 0.5, 0.5],
        [0.5, 0, binary_pair_r_star(0.5), 0.5, 0.5],
    ]
    assert len(rows) == 1 + len(expected)
    for row, numbers in zip(rows[1:], expected):
        assert [float(x) for x in row[:5]] == pytest.approx(numbers, abs=1e-9)
        assert row[5] == "grid"


def test_simulate_infeasible_target_exits_2_with_certificate(capsys):
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "ternary_demo.yaml", "--target", "1,0,0",
        "--n", 20, "--trials", 10,
    )
    assert (code, out) == (2, "INFEASIBLE V={1,2} lhs=0 rhs=0.2\n")


def test_simulate_binary_pair(capsys):
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "binary_pair.yaml", "--target", "0.7,0.3",
        "--n", 20, "--trials", 50, "--seed", 1,
    )
    assert code == 0
    lines = out.splitlines()
    assert "out_of_region_fraction=0" in lines
    assert "empirical_type=0.713 0.287" in lines


def test_simulate_codebook_past_the_enumeration_guard_exits_4(capsys):
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "binary_pair.yaml", "--target", "0.7,0.3",
        "--n", 21, "--trials", 5, "--codebook-D", "0.2",
    )
    assert (code, out) == (4, "")


def test_simulate_codebook_with_no_admitted_type_exits_2(capsys):
    code = main([
        "simulate", str(PROBLEMS / "binary_pair.yaml"), "--target", "0.7,0.3",
        "--n", "1", "--codebook-D", "0.25",
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "infeasible: no source string of length n=1 has an admitted type\n"


def test_simulate_ternary_demo(capsys):
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "ternary_demo.yaml", "--target", "0.55,0.25,0.2",
        "--n", 200, "--trials", 40, "--seed", 11,
    )
    assert code == 0
    lines = out.splitlines()
    assert "out_of_region_fraction=0" in lines
    assert "empirical_type=0.55475 0.24975 0.1955" in lines


def test_simulate_binary_pair_against_a_covering_codebook(capsys):
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "binary_pair.yaml", "--target", "0.7,0.3",
        "--n", 12, "--trials", 50, "--seed", 3, "--codebook-D", "0.25",
    )
    assert code == 0
    lines = out.splitlines()
    for line in (
        "mean_distortion=0.156666666667",
        "stderr=0.00911006022367",
        "out_of_region_fraction=0.1",
        "codebook_rate=0.408907549634",
        "empirical_type=0.695 0.305",
    ):
        assert line in lines


def test_simulate_rule_with_a_negative_entry_exits_3(capsys, tmp_path):
    rule = tmp_path / "rule.txt"
    rule.write_text("1: 1 0\n2: 0 1\n3: -1e-10 1.0000000001\n")
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "binary_pair.yaml", "--rule", rule,
        "--n", 20, "--trials", 10,
    )
    assert (code, out) == (3, "")


@pytest.mark.parametrize("seed", range(8))
def test_simulate_rule_lacking_an_offered_subset_exits_3_at_every_seed(
    capsys, tmp_path, seed
):
    # {1} is offered with chance 1/12; the rule is refused before any draw,
    # not only at seeds whose few draws happen to offer it
    rule = tmp_path / "rule.txt"
    rule.write_text("1: 1 0\n3: 0.5 0.5\n")
    code = main([
        "simulate", str(PROBLEMS / "binary_pair.yaml"), "--rule", str(rule),
        "--n", "3", "--trials", "1", "--seed", str(seed),
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: rule has no entry for offered subset {1}\n"


def test_simulate_rule_lacking_an_offered_subset_exits_3_before_the_codebook(
    capsys, tmp_path
):
    # at n = 16 the covering codebook's table is past its guard, which would
    # exit 4 had the codebook been built before the rule was checked
    rule = tmp_path / "rule.txt"
    rule.write_text("1: 1 0\n3: 0.5 0.5\n")
    code = main([
        "simulate", str(PROBLEMS / "binary_pair.yaml"), "--rule", str(rule),
        "--n", "16", "--trials", "5", "--codebook-D", "0.25",
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: rule has no entry for offered subset {1}\n"


def test_simulate_rule_over_another_alphabet_exits_3(capsys, tmp_path):
    # a valid 4-symbol rule with an entry for every subset the binary pair
    # can offer
    rule = tmp_path / "rule.txt"
    rule.write_text("1: 1 0 0 0\n2: 0 1 0 0\n3: 0.5 0.5 0 0\n")
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "binary_pair.yaml", "--rule", rule,
        "--n", 10, "--trials", 5,
    )
    assert (code, out) == (3, "")


def test_negative_simulate_seed_exits_3(capsys):
    code, out = run_text(
        capsys, "simulate", PROBLEMS / "binary_pair.yaml", "--target", "0.7,0.3",
        "--n", 10, "--trials", 5, "--seed", -1,
    )
    assert (code, out) == (3, "")


#: Seven symbols, two sources: random draws alone printed R~ below R* here.
SEVEN_SYMBOLS = """\
alphabet_x: 7
alphabet_y: 7
mode: independent
delta: 0
sources:
  - [0.034034, 0.220711, 0.183353, 0.054430, 0.023876, 0.025869, 0.457727]
  - [0.169312, 0.163433, 0.048537, 0.098796, 0.191432, 0.003368, 0.325122]
distortion:
  - [0, 3, 3, 3, 1, 3, 3]
  - [3, 0, 3, 3, 3, 2, 3]
  - [3, 1, 0, 1, 1, 2, 1]
  - [1, 1, 3, 0, 3, 1, 3]
  - [2, 1, 1, 1, 0, 1, 1]
  - [1, 3, 1, 1, 2, 0, 2]
  - [3, 3, 2, 2, 3, 2, 0]
"""


@pytest.mark.parametrize("target", ["0.3", "0.77"])
def test_optimize_region_rate_is_never_below_the_hull_rate(capsys, tmp_path, target):
    # the hull lies inside the region, so R~ >= R*
    problem = tmp_path / "seven.yaml"
    problem.write_text(SEVEN_SYMBOLS)
    code, rows = run(capsys, "optimize", problem, "--distortion", target)
    assert code == 0
    assert rows[1][-1] == "multistart"
    assert float(rows[1][1]) >= float(rows[1][2])


#: The benchmark's three binary sources under a weighted distortion; the
#: first lies between the other two.
WC_K2_M3 = """\
alphabet_x: 2
alphabet_y: 2
mode: independent
delta: 0
sources:
  - [0.420057, 0.579943]
  - [0.817763, 0.182237]
  - [0.301934, 0.698066]
distortion:
  - [0, 2]
  - [3, 0]
"""


@pytest.mark.parametrize("target", ["0.336046", "0.714097"])
def test_optimize_prints_the_hull_maximum_where_it_beats_the_region_search(
    capsys, tmp_path, target
):
    # the region's search stops short of the hull's maximum here; that
    # maximum is a region point, so R~ prints it
    problem = tmp_path / "wc_k2_m3.yaml"
    problem.write_text(WC_K2_M3)
    code, rows = run(capsys, "optimize", problem, "--distortion", target)
    assert code == 0
    assert float(rows[1][1]) >= float(rows[1][2])
    assert rows[1][-1] == "grid"


def test_the_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_a_shared_parser_prints_what_fresh_parsers_print(capsys, monkeypatch):
    # a call refused while parsing leaves nothing behind on the shared parser
    calls = [
        ["optimize", PROBLEMS / "binary_pair.yaml", "--distortion", "0.1", "--curve", "3"],
        ["region", PROBLEMS / "binary_pair.yaml", "--check", "1/2,1/2"],
        ["rd", PROBLEMS / "ternary_demo.yaml", "--p", "1/3,1/3,1/3", "--curve", "3"],
        ["synthesize", PROBLEMS / "ternary_demo.yaml", "--target", "1/3,1/3,1/3"],
        ["optimize", PROBLEMS / "binary_pair.yaml", "--curve", "3"],
    ]

    def outputs():
        got = []
        for argv in calls:
            code = cli.main([str(a) for a in argv])
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    shared = outputs()
    assert shared[0][0] == 3 and all(code == 0 for code, *_ in shared[1:])
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == shared


@pytest.mark.parametrize("name", ["binary_pair.yaml", "ternary_demo.yaml", "wc_k2_m3", "wc_k4_m3"])
def test_optimize_curve_leaks_no_warning(capsys, tmp_path, name):
    # a numpy warning that leaks out of the solvers is an error here, as it
    # is in CI, which runs the CLI under python -W error
    problem = PROBLEMS / name
    if not name.endswith(".yaml"):
        problem = tmp_path / f"{name}.yaml"
        problem.write_text({"wc_k2_m3": WC_K2_M3, "wc_k4_m3": WC_K4_M3}[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows = run(capsys, "optimize", problem, "--curve", 3)
    assert code == 0
    assert len(rows) == 4
