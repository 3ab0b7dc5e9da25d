import importlib.util
import sys
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
