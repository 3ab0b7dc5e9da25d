import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from switchrd import ValidationError, load_problem, problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

VALID = """\
alphabet_x: 2
alphabet_y: 2
mode: independent
delta: 0
sources:
  - [2/3, 1/3]
distortion:
  - [0, 1]
  - [1, 0]
labels: [zero, one]
"""


def write(tmp_path, text):
    path = tmp_path / "problem.yaml"
    path.write_text(text)
    return str(path)


def test_valid_file_loads(tmp_path):
    problem = load_problem(write(tmp_path, VALID))
    assert (problem.alphabet_x, problem.alphabet_y) == (2, 2)
    assert problem.labels == ("zero", "one")


def test_unreadable_path(tmp_path):
    with pytest.raises(ValidationError, match="cannot read problem file"):
        load_problem(str(tmp_path / "missing.yaml"))


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("alphabet_x: [1, 2\n", "not valid YAML", id="invalid-yaml"),
        pytest.param(
            VALID.replace("sources:\n  - [2/3, 1/3]\n", ""),
            "missing required key 'sources'",
            id="missing-key",
        ),
        pytest.param(
            VALID.replace("mode: independent", "mode: mixed"), "unknown mode", id="unknown-mode"
        ),
        pytest.param(
            VALID.split("distortion:")[0] + "distortion: 1\n",
            "distortion must be a list of rows",
            id="distortion-not-a-list",
        ),
        pytest.param(
            VALID.replace("delta: 0", "delta: -1/10"), "delta must be nonnegative",
            id="negative-delta",
        ),
        pytest.param(
            VALID.replace("[zero, one]", "[zero, one, two]"), "labels must list",
            id="labels-length",
        ),
        # exact entries are held to >= 0 exactly, not to float rounding slack
        pytest.param(
            VALID.replace("[2/3, 1/3]", "[-1/10000000000, 10000000001/10000000000]"),
            "source has a negative entry -1/10000000000", id="negative-exact-source-row",
        ),
        pytest.param(
            VALID.replace("mode: independent", "mode: joint\nnum_sources: 2").replace(
                "sources:\n  - [2/3, 1/3]",
                "sources: [-1/10000000000, 1/4, 1/4, 5000000001/10000000000]",
            ),
            "joint PMF has a negative entry -1/10000000000", id="negative-exact-joint-pmf",
        ),
        # -1e-400 is exactly negative, though as a float it rounds to -0.0
        pytest.param(
            VALID.replace("  - [0, 1]\n", "  - [-1e-400, 1]\n"),
            "distortion entries must be nonnegative", id="negative-exact-distortion-entry",
        ),
    ],
)
def test_malformed_file_is_rejected(tmp_path, text, message):
    with pytest.raises(ValidationError, match=message):
        load_problem(write(tmp_path, text))


#: Where a number sits in VALID, and how to write another in its place.
PLACES = pytest.mark.parametrize(
    "old, new",
    [
        ("[2/3, 1/3]", "[{}, 1/3]"),
        ("  - [0, 1]\n", "  - [{}, 1]\n"),
        ("delta: 0", "delta: {}"),
    ],
    ids=["source", "distortion", "delta"],
)


@pytest.mark.parametrize("literal", [".nan", ".inf", "-.inf", "1.0e+400"])
@PLACES
def test_a_non_finite_number_is_rejected(tmp_path, literal, old, new):
    # YAML reads each as a float: nan, inf, -inf, and inf by overflow
    assert not math.isfinite(yaml.safe_load(literal))
    with pytest.raises(ValidationError, match="cannot parse number"):
        load_problem(write(tmp_path, VALID.replace(old, new.format(literal))))


@pytest.mark.parametrize("literal", ["1.0e400", "-2e308", f"{10**400}/3", str(10**400)])
@PLACES
def test_a_number_beyond_the_float_range_is_rejected(tmp_path, literal, old, new):
    # YAML reads these as strings or ints, which are exact, but no float
    # holds them
    assert isinstance(yaml.safe_load(literal), (str, int))
    with pytest.raises(ValidationError, match="lies beyond the float range"):
        load_problem(write(tmp_path, VALID.replace(old, new.format(literal))))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_parse_number_rejects_a_non_finite_float(value):
    with pytest.raises(ValidationError, match=f"cannot parse number {value!r}"):
        problem.parse_number(value)


@pytest.mark.parametrize(
    "value, exact",
    [
        (int(sys.float_info.max), Fraction(sys.float_info.max)),
        ("-1.7976931348623157e+308", -Fraction(17976931348623157) * 10**292),
        ("5e-324", Fraction(5, 10**324)),
    ],
    ids=["largest-int", "largest-negative-string", "smallest-subnormal"],
)
def test_parse_number_keeps_what_a_float_holds(value, exact):
    assert problem.parse_number(value) == exact


@pytest.mark.parametrize("value", [int(sys.float_info.max) + 1, "-1e309", f"{10**400}/7"])
def test_parse_number_rejects_what_no_float_holds(value):
    with pytest.raises(ValidationError, match="lies beyond the float range"):
        problem.parse_number(value)


INDEPENDENT_SIZES = VALID.replace("alphabet_y: 2", "alphabet_y: {}").replace(
    "alphabet_x: 2", "alphabet_x: {}"
)
JOINT = """\
alphabet_x: 2
alphabet_y: 2
mode: joint
num_sources: {}
sources: [1/4, 1/4, 1/4, 1/4]
distortion:
  - [0, 1]
  - [1, 0]
"""


@pytest.mark.parametrize("value", ["2.9", "2.5", "true", "'2.0'", "'two'", "[2]", "null"])
@pytest.mark.parametrize("key", ["alphabet_x", "alphabet_y"])
def test_an_alphabet_size_that_is_not_an_exact_integer_is_rejected(tmp_path, key, value):
    sizes = {"alphabet_x": "2", "alphabet_y": "2", key: value}
    text = INDEPENDENT_SIZES.format(sizes["alphabet_x"], sizes["alphabet_y"])
    with pytest.raises(ValidationError, match="alphabet sizes must be integers"):
        load_problem(write(tmp_path, text))


@pytest.mark.parametrize("value", ["1.5", "2.000001", "true", "'2.0'", "[2]"])
def test_num_sources_that_is_not_an_exact_integer_is_rejected(tmp_path, value):
    with pytest.raises(ValidationError, match="num_sources must be an integer"):
        load_problem(write(tmp_path, JOINT.format(value)))


@pytest.mark.parametrize("value", ["2", "'2'", "2.0", "' 2 '"])
def test_an_exact_integer_size_is_accepted(tmp_path, value):
    loaded = load_problem(write(tmp_path, INDEPENDENT_SIZES.format(value, value)))
    assert (loaded.alphabet_x, loaded.alphabet_y) == (2, 2)
    assert type(loaded.alphabet_x) is int and type(loaded.alphabet_y) is int
    joint = load_problem(write(tmp_path, JOINT.format(value)))
    assert joint.sources.num_sources == 2


def module_without_libyaml(monkeypatch):
    """A separate copy of ``switchrd.problem``, executed as if PyYAML had no
    libyaml: ``yaml.CSafeLoader`` is absent while it loads."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    name = "switchrd._problem_no_libyaml"
    spec = importlib.util.spec_from_file_location(name, problem.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def fields(spec):
    return (
        spec.alphabet_x,
        spec.alphabet_y,
        spec.sources.mode,
        spec.sources.table,
        spec.sources.num_sources,
        spec.distortion.values.tolist(),
        spec.delta,
        spec.labels,
    )


def test_libyaml_loader_is_used_when_present():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert problem._YAML_LOADER is expected


@pytest.mark.parametrize(
    "path",
    [PROBLEMS / "binary_pair.yaml", PROBLEMS / "ternary_demo.yaml", None],
    ids=["binary_pair", "ternary_demo", "valid"],
)
def test_both_loaders_build_the_same_problem(tmp_path, monkeypatch, path):
    path = write(tmp_path, VALID) if path is None else str(path)
    loaded = load_problem(path)
    fallback = module_without_libyaml(monkeypatch)
    assert fallback._YAML_LOADER is yaml.SafeLoader
    assert fields(fallback.load_problem(path)) == fields(loaded)


def test_fallback_loader_rejects_invalid_yaml(tmp_path, monkeypatch):
    fallback = module_without_libyaml(monkeypatch)
    with pytest.raises(ValidationError, match="not valid YAML"):
        fallback.load_problem(write(tmp_path, "alphabet_x: [1, 2\n"))
