"""Reference checks for every benchmark op, run outside the timed region.

``check(op, text)`` returns None when the output ``text`` of an op that
exited as expected is right, and otherwise a one-line reason. Region
quantities are recomputed here from the problem file in exact rational
arithmetic; rates are compared with closed forms where one exists.

Tolerances are fixed from the documented resolutions, not from observed
errors:

* every number the CLI prints has 12 significant digits (``%.12g``), so a
  printed probability is off by at most 5e-13 and a sum of k <= 10 of them by
  5e-12; ``PRINT_TOL`` = 1e-11 covers that;
* a rate point comes from a channel whose Lagrangian gap the solver
  certifies below ``BA_TOL`` = 1e-9 bits, so the printed rate exceeds R(D) at
  the printed D by at most that; ``RATE_TOL`` = 1e-6 bits leaves three orders
  of magnitude for printing and for time-sharing across a collapsed slope
  bracket;
* the maximizers stop refining when an ascent step of 0.05 / 2**9 (about
  1e-4 in probability) no longer helps, and on the binary instances here
  (every source entry >= 0.1) the rate changes by at most
  |log2(p / (1 - p))| <= log2(9) < 3.2 bits per unit of p, so a reported
  maximum is within 3.2e-4 bits of the true one; ``OPT_TOL`` = 1e-3 bits
  also covers the slope bisection's distortion tolerance of 1e-6;
* ``synthesize`` promises an induced distribution within L1 1e-8 of the
  target (``SYNTH_L1_TOL``).
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import yaml

PRINT_TOL = 1e-11
RATE_TOL = 1e-6
OPT_TOL = 1e-3
SYNTH_L1_TOL = 1e-8
#: The region's own comparison slack (``region.MEMBER_ATOL``).
MEMBER_ATOL = 1e-12
#: The CLI's exit code when a guard or a solver's iteration budget stops it:
#: a failed op, but not a wrong answer.
REFUSED = 4


# ---------------------------------------------------------------- problems


class Exact:
    """A problem file read independently of the package, in Fractions."""

    def __init__(self, path: str):
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        self.k = int(raw["alphabet_x"])
        self.delta = Fraction(str(raw.get("delta", 0)))
        self.joint = raw.get("mode", "independent") == "joint"
        if self.joint:
            self.m = int(raw["num_sources"])
            self.pmf = [Fraction(str(x)) for x in raw["sources"]]
        else:
            self.rows = [[Fraction(str(x)) for x in row] for row in raw["sources"]]
            self.m = len(self.rows)
        self._q = None

    @property
    def q(self) -> list[Fraction]:
        """Q(V) for every mask V (index 0 unused): the chance that every
        source's symbol lies in V."""
        if self._q is None:
            size = 1 << self.k
            if self.joint:
                q = [Fraction(0)] * size
                for flat, value in enumerate(self.pmf):
                    mask = 0
                    for _ in range(self.m):
                        mask |= 1 << (flat % self.k)
                        flat //= self.k
                    q[mask] += value
                for bit in range(self.k):  # sum over sub-masks
                    for mask in range(size):
                        if mask >> bit & 1:
                            q[mask] += q[mask ^ (1 << bit)]
            else:
                q = [Fraction(1)] * size
                for row in self.rows:
                    sums = [Fraction(0)] * size
                    for mask in range(1, size):
                        low = mask & -mask
                        sums[mask] = sums[mask ^ low] + row[low.bit_length() - 1]
                    q = [a * b for a, b in zip(q, sums)]
            q[0] = Fraction(0)
            self._q = q
        return self._q

    def beta(self) -> list[Fraction]:
        """beta(V): the chance that the offered set is exactly V (Moebius
        inverse of Q)."""
        b = list(self.q)
        for bit in range(self.k):
            for mask in range(1 << self.k):
                if mask >> bit & 1:
                    b[mask] -= b[mask ^ (1 << bit)]
        return b


@lru_cache(maxsize=None)
def exact(path: str) -> Exact:
    return Exact(path)


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subset_text(mask: int) -> str:
    return "{" + ",".join(str(i) for i in _members(mask)) + "}"


def _parse_subset(text: str) -> int:
    inner = text.strip()[1:-1]
    return sum(1 << int(t) for t in inner.split(",") if t)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------- closed forms


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def rate_closed_form(p: list[float], dist: float) -> float | None:
    """R(D) under Hamming distortion where a closed form exists: any binary
    source, or the uniform k-ary source; None otherwise."""
    k = len(p)
    if k == 2:
        return max(0.0, h2(p[0]) - h2(dist)) if dist < min(p) else 0.0
    if all(abs(x - 1.0 / k) <= PRINT_TOL for x in p):
        if dist >= (k - 1) / k:
            return 0.0
        return math.log2(k) - h2(dist) - dist * math.log2(k - 1)
    return None


def binary_max_rate(lo: float, hi: float, dist: float) -> float:
    """Max over p0 in [lo, hi] of R(D) for a binary Hamming source: h is
    largest at the point of the interval closest to 1/2."""
    p0 = min(max(0.5, lo), hi)
    return rate_closed_form([p0, 1.0 - p0], dist)


# ---------------------------------------------------------------- checks


def check_rd(op: dict, text: str) -> str | None:
    rows = _rows(text)
    want = int(_argv_value(op["argv"], "--curve"))
    if rows[:1] != [["D", "R"]] or len(rows) != want + 1:
        return f"rd: expected header and {want} rows"
    pts = [(float(d), float(r)) for d, r in rows[1:]]
    p = op["ctx"]["p"]
    for (d0, r0), (d1, r1) in zip(pts, pts[1:]):
        if d1 < d0 - PRINT_TOL or r1 > r0 + RATE_TOL:
            return f"rd: curve not nonincreasing at D={d1}"
    for dist, rate in pts:
        if not -RATE_TOL <= rate <= math.log2(len(p)) + RATE_TOL:
            return f"rd: rate {rate} outside [0, log2 k]"
    if op["ctx"]["hamming"]:
        for dist, rate in pts:
            ref = rate_closed_form(p, dist)
            if ref is not None and abs(rate - ref) > RATE_TOL:
                return f"rd: R({dist}) = {rate}, closed form {ref}"
    return None


def check_optimize(op: dict, text: str) -> str | None:
    from switchrd import Distribution, RegionSpec, is_member, load_problem

    ctx = op["ctx"]
    k = ctx["k"]
    rows = _rows(text)
    header = ["D", "R_tilde", "R_star"] + [f"p_{i}" for i in range(k)] + ["method"]
    if len(rows) != 2 or rows[0] != header or len(rows[1]) != len(header):
        return "optimize: malformed table"
    row = rows[1]
    dist, r_tilde, r_star = float(row[0]), float(row[1]), float(row[2])
    argmax = [float(x) for x in row[3:3 + k]]
    if row[-1] not in ("grid", "multistart"):
        return f"optimize: unknown method {row[-1]!r}"
    if not (math.isfinite(r_tilde) and math.isfinite(r_star)):
        return "optimize: infinite rate with a distortion floor of 0"
    problem = load_problem(ctx["path"])
    spec = RegionSpec(problem.sources, float(problem.delta) + PRINT_TOL)
    if not is_member(Distribution(argmax), spec).satisfied:
        return "optimize: printed argmax is not in the region"
    if r_tilde < r_star - OPT_TOL:
        return f"optimize: R~ {r_tilde} below R* {r_star}"
    if ctx["hamming"] and k == 2:
        ex = exact(ctx["path"])
        lo = float(ex.q[1] - ex.delta)
        hi = 1.0 - float(ex.q[2] - ex.delta)
        ref_tilde = binary_max_rate(max(lo, 0.0), min(hi, 1.0), dist)
        p0s = [r[0] for r in ctx["rows"]]
        ref_star = binary_max_rate(min(p0s), max(p0s), dist)
        if abs(r_tilde - ref_tilde) > OPT_TOL:
            return f"optimize: R~ {r_tilde}, closed form {ref_tilde}"
        if abs(r_star - ref_star) > OPT_TOL:
            return f"optimize: R* {r_star}, closed form {ref_star}"
    return None


def check_region_list(op: dict, text: str) -> str | None:
    ex = exact(op["ctx"]["path"])
    rows = _rows(text)
    if rows[:1] != [["subset_mask", "symbols", "rhs"]] or len(rows) != 1 << ex.k:
        return "region --list: expected a header and one row per nonempty subset"
    for mask, (mask_text, symbols, rhs) in enumerate(rows[1:], start=1):
        if int(mask_text) != mask or symbols != _subset_text(mask):
            return f"region --list: row {mask} names the wrong subset"
        want = ex.q[mask] - ex.delta
        # exact inputs print exact fractions; anything else prints %.12g
        if Fraction(rhs) != want and ("/" in rhs or not _close(float(rhs), float(want),
                                                                PRINT_TOL)):
            return f"region --list: rhs of {symbols} is {rhs}, expected {want}"
    return None


def check_region_check(op: dict, text: str) -> str | None:
    ctx = op["ctx"]
    ex = exact(ctx["path"])
    p = [Fraction(x) for x in ctx["p"]]
    sums = [Fraction(0)] * (1 << ex.k)
    for mask in range(1, 1 << ex.k):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + p[low.bit_length() - 1]
    margins = {m: sums[m] - (ex.q[m] - ex.delta) for m in range(1, 1 << ex.k)}
    violated = {m for m, g in margins.items() if g < -MEMBER_ATOL}
    # the program compares float sums; at a margin this close to 0 either
    # verdict is right
    unclear = {m for m, g in margins.items() if abs(g) <= PRINT_TOL}
    lines = text.splitlines()
    if ctx["member"] != (not violated):
        return "region --check: generated point is on the wrong side"
    if lines == ["MEMBER"]:
        return None if not violated else "region --check: MEMBER for a non-member"
    printed = set()
    for line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "VIOLATION":
            return f"region --check: unexpected line {line!r}"
        mask = _parse_subset(parts[1][2:])
        lhs, rhs = float(parts[2][4:]), float(parts[3][4:])
        if not (_close(lhs, float(sums[mask]), PRINT_TOL)
                and _close(rhs, float(ex.q[mask] - ex.delta), PRINT_TOL)):
            return f"region --check: wrong sides for {parts[1]}"
        printed.add(mask)
    if (printed ^ violated) - unclear:
        return "region --check: printed violations differ from the violated subsets"
    return None


def check_synthesize(op: dict, text: str) -> str | None:
    ex = exact(op["ctx"]["path"])
    target = op["ctx"]["target"]
    if op["expect_exit"] == 2:
        parts = text.split()
        if len(parts) != 4 or parts[0] != "INFEASIBLE":
            return "synthesize: expected an INFEASIBLE certificate"
        mask = _parse_subset(parts[1][2:])
        lhs, rhs = float(parts[2][4:]), float(parts[3][4:])
        mass = sum(target[i] for i in _members(mask))
        need = float(ex.q[mask])
        if not (_close(lhs, mass, PRINT_TOL) and _close(rhs, need, PRINT_TOL)):
            return "synthesize: certificate sides do not match the subset"
        return None if mass < need else "synthesize: certificate subset is not violated"
    beta = ex.beta()
    rule = {}
    for line in text.splitlines():
        head, _, tail = line.partition(":")
        rule[int(head)] = [float(x) for x in tail.split()]
    induced = np.zeros(ex.k)
    for mask in range(1, 1 << ex.k):
        if beta[mask] == 0:
            continue
        f = rule.get(mask)
        if f is None:
            return f"synthesize: no rule for offered subset {_subset_text(mask)}"
        if min(f) < 0 or abs(sum(f) - 1.0) > PRINT_TOL * ex.k:
            return f"synthesize: rule for {_subset_text(mask)} is not a distribution"
        if any(f[i] > PRINT_TOL for i in range(ex.k) if not mask >> i & 1):
            return f"synthesize: rule for {_subset_text(mask)} leaves the subset"
        induced += float(beta[mask]) * np.array(f)
    gap = float(np.abs(induced - np.array(target)).sum())
    return None if gap <= SYNTH_L1_TOL else f"synthesize: induced L1 gap {gap:.3g}"


def check_simulate(op: dict, text: str) -> str | None:
    kv = dict(line.split("=", 1) for line in text.splitlines())
    argv = op["argv"]
    n, trials = int(_argv_value(argv, "--n")), int(_argv_value(argv, "--trials"))
    if (kv.get("n"), kv.get("trials"), kv.get("seed")) != (
            str(n), str(trials), _argv_value(argv, "--seed")):
        return "simulate: n, trials or seed not echoed"
    ptype = [float(x) for x in kv["empirical_type"].split()]
    if len(ptype) != op["ctx"]["k"] or min(ptype) < 0 or \
            abs(sum(ptype) - 1.0) > PRINT_TOL * len(ptype):
        return "simulate: empirical type is not on the simplex"
    counts = np.array(ptype) * n * trials
    if np.abs(counts - np.round(counts)).max() > 1e-3:
        return "simulate: empirical type is not a type of n * trials symbols"
    escaped = float(kv["out_of_region_fraction"])
    if not 0.0 <= escaped <= 1.0 or abs(escaped * trials - round(escaped * trials)) > 1e-6:
        return "simulate: out-of-region fraction is not a fraction of the trials"
    if "--codebook-D" in argv:
        dmax = float(np.max(op["ctx"]["distortion"]))
        mean, rate = float(kv["mean_distortion"]), float(kv["codebook_rate"])
        if not 0.0 <= mean <= dmax or float(kv["stderr"]) < 0:
            return "simulate: mean distortion outside [0, max d]"
        if not 0.0 <= rate <= math.log2(len(op["ctx"]["distortion"][0])) + PRINT_TOL:
            return "simulate: codebook rate outside [0, log2 |Y|]"
    return None


def check_best_response(op: dict, text: str) -> str | None:
    head, *vec = text.split()
    value = float(head)
    block = np.array(op["args"]["block"])
    words = np.array(op["args"]["words"])
    d = np.array(op["ctx"]["distortion"], dtype=float)
    vec = np.array([int(x) for x in vec])
    if vec.size != block.shape[1] or any(vec[t] not in block[:, t] for t in range(vec.size)):
        return "best response: selection uses a symbol not on offer"

    def to_codebook(x):
        return float(d[x[None, :], words].mean(axis=1).min())

    if abs(to_codebook(vec) - value) > 1e-12:
        return "best response: value is not the distortion of its selection"
    if value < to_codebook(block[0]) - 1e-12:
        return "best response: below the first source's own string"
    return None


CHECKS = {
    "rd": check_rd,
    "optimize": check_optimize,
    "region_list": check_region_list,
    "region_check": check_region_check,
    "synthesize": check_synthesize,
    "simulate": check_simulate,
    "best_response": check_best_response,
}


def check(op: dict, text: str) -> str | None:
    try:
        return CHECKS[op["check"]](op, text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"{op['check']}: unparsable output ({type(exc).__name__}: {exc})"


def judge(ops: list[dict], result: dict) -> dict:
    """Verdict counts over every (op, pass) of one worker result: solved,
    refused (exit ``REFUSED`` where another code was expected) or wrong."""
    counts = {"attempted": 0, "solved": 0, "refused": 0}
    wrong, refused = set(), set()
    for op, rec in zip(ops, result["ops"]):
        reasons = {}  # output index -> verdict; passes repeat their outputs
        for code, out in zip(rec["exit"], rec["out"]):
            counts["attempted"] += 1
            if code == op["expect_exit"]:
                if out not in reasons:
                    reasons[out] = check(op, rec["texts"][out])
                reason = reasons[out]
                if reason is None:
                    counts["solved"] += 1
                    continue
            elif code == REFUSED:
                counts["refused"] += 1
                refused.add(op["name"])
                continue
            else:
                reason = f"exit {code}, expected {op['expect_exit']}"
            wrong.add(f"{op['name']}: {reason}")
    counts["wrong_ops"] = sorted(wrong)
    counts["refused_ops"] = sorted(refused)
    return counts
