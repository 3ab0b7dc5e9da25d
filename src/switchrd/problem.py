"""Problem-file ingestion: one YAML document describing sources, distortion
and the region slack. Probabilities may be written as fractions ("1/3"), so
rational instances stay exact all the way into the region computations.

Files are parsed by PyYAML's libyaml-backed safe loader when PyYAML was built
with libyaml, and by its pure-Python safe loader otherwise; both resolve and
construct values the same way, so they build the same mappings."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import yaml

from .errors import ValidationError
from .probcore import DistortionMatrix, SourceList

#: The safe loader that parses problem files: libyaml's when present, since
#: the pure-Python parser takes several milliseconds on a small file.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
#: The largest magnitude a number may have, as an int: the computations run
#: in floats.
_LARGEST = int(sys.float_info.max)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A fully validated problem instance."""

    alphabet_x: int
    alphabet_y: int
    sources: SourceList
    distortion: DistortionMatrix
    delta: Fraction
    labels: tuple[str, ...] | None = None


def parse_number(value) -> Fraction:
    """Accept ints, fraction strings like "2/3", and decimal literals, within
    the float range that the computations run in.

    Decimal floats are read through their shortest repr, so 0.1 means 1/10.
    """
    if isinstance(value, bool):
        raise ValidationError(f"not a number: {value!r}")
    if isinstance(value, int):
        if abs(value) > _LARGEST:
            raise ValidationError(f"number {value!r} lies beyond the float range")
        return Fraction(value)
    if isinstance(value, float):
        try:
            return Fraction(str(value))
        except ValueError as exc:  # nan and the infinities
            raise ValidationError(f"cannot parse number {value!r}") from exc
    if isinstance(value, str):
        try:
            x = Fraction(value.strip())
            float(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse number {value!r}") from exc
        except OverflowError as exc:
            raise ValidationError(f"number {value!r} lies beyond the float range") from exc
        return x
    raise ValidationError(f"cannot parse number {value!r}")


def parse_nonnegative(value, what: str) -> float:
    """A number that must be >= 0, as a float. The sign is checked on the
    exact value, before the conversion could round a tiny negative to -0.0."""
    x = parse_number(value)
    if x < 0:
        raise ValidationError(f"{what} must be nonnegative")
    return float(x)


def parse_vector(text: str) -> list[Fraction]:
    """Parse a comma- or space-separated vector of numbers."""
    tokens = [t for t in text.replace(",", " ").split() if t]
    if not tokens:
        raise ValidationError("empty vector")
    return [parse_number(t) for t in tokens]


def _integer(value, message: str) -> int:
    """An exact integer: an int, a float with no fractional part, or a
    string that ``int`` reads; anything else, booleans included, raises
    ``ValidationError(message)``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError(message)


def _require(mapping: dict, key: str):
    if key not in mapping:
        raise ValidationError(f"problem file is missing required key {key!r}")
    return mapping[key]


def load_problem(path: str) -> ProblemSpec:
    """Load and fully validate a problem file before any computation."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ValidationError(f"cannot read problem file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"problem file is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("problem file must be a mapping of keys to values")

    alphabet_x = _integer(_require(raw, "alphabet_x"), "alphabet sizes must be integers")
    alphabet_y = _integer(_require(raw, "alphabet_y"), "alphabet sizes must be integers")
    mode = raw.get("mode", "independent")
    sources_raw = _require(raw, "sources")
    if mode == "independent":
        if not isinstance(sources_raw, list) or not all(
            isinstance(row, list) for row in sources_raw
        ):
            raise ValidationError("independent sources must be a list of PMF rows")
        rows = [[parse_number(x) for x in row] for row in sources_raw]
        for row in rows:
            if len(row) != alphabet_x:
                raise ValidationError(
                    f"source row has {len(row)} entries, alphabet_x is {alphabet_x}"
                )
        sources = SourceList.independent(rows)
    elif mode == "joint":
        num_sources = _integer(_require(raw, "num_sources"), "num_sources must be an integer")
        if not isinstance(sources_raw, list) or any(
            isinstance(x, list) for x in sources_raw
        ):
            raise ValidationError("joint sources must be a flat PMF list")
        pmf = [parse_number(x) for x in sources_raw]
        sources = SourceList.joint(pmf, alphabet_x, num_sources)
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    distortion_raw = _require(raw, "distortion")
    if not isinstance(distortion_raw, list) or not all(
        isinstance(row, list) for row in distortion_raw
    ):
        raise ValidationError("distortion must be a list of rows")
    dist_rows = [
        [parse_nonnegative(x, "distortion entries") for x in row] for row in distortion_raw
    ]
    if len(dist_rows) != alphabet_x or any(len(r) != alphabet_y for r in dist_rows):
        raise ValidationError(
            f"distortion must be {alphabet_x} rows of {alphabet_y} entries"
        )
    distortion = DistortionMatrix(dist_rows)

    delta = parse_number(raw.get("delta", 0))
    if delta < 0:
        raise ValidationError("delta must be nonnegative")

    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != alphabet_x:
            raise ValidationError("labels must list one name per source symbol")
        labels = tuple(str(x) for x in labels)

    return ProblemSpec(
        alphabet_x=alphabet_x,
        alphabet_y=alphabet_y,
        sources=sources,
        distortion=distortion,
        delta=delta,
        labels=labels,
    )
