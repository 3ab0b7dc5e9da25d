import pytest

from switchrd import ValidationError, load_problem

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
    ],
)
def test_malformed_file_is_rejected(tmp_path, text, message):
    with pytest.raises(ValidationError, match=message):
        load_problem(write(tmp_path, text))
