import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from switchrd import (
    DistortionMatrix,
    RegionSpec,
    SourceList,
    ValidationError,
    converse_bound,
    greedy_max_rule,
    simulate_game,
)
from switchrd.game_sim import Codebook, best_response_distortion

HAMMING = DistortionMatrix([[0, 1], [1, 0]])


class TestConverseBound:
    def test_union_of_hoeffding_tails(self):
        assert converse_bound(1000, 0.05, 2) == pytest.approx(2 * math.exp(-5))
        assert converse_bound(10, 0.1, 3) == pytest.approx(6 * math.exp(-0.2))

    @pytest.mark.parametrize(
        "rows",
        [
            [[Fraction(1, 2), Fraction(1, 2)]],
            [[Fraction(2, 3), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 4)]],
        ],
    )
    def test_covers_the_simulated_escape_frequency(self, rows):
        # the greedy rule keeps the output mass on {0} at Q({0}), so the {0}
        # constraint is tight and blocks escape often enough to be counted
        sources = SourceList.independent(rows)
        n, delta = 500, 0.05
        report = simulate_game(
            sources, greedy_max_rule(sources), None, HAMMING, n, trials=1000,
            seed=0, region=RegionSpec(sources, delta),
        )
        assert report.out_of_region_fraction > 0
        assert converse_bound(n, delta, 2) >= report.out_of_region_fraction

    def test_rejects_bad_arguments(self):
        for args in ((0, 0.1, 2), (10, 0, 2), (10, 0.1, 1)):
            with pytest.raises(ValidationError):
                converse_bound(*args)


def brute_force_best_response(realizations, words, d):
    """Every selection in lexicographic order; the first maximizer wins."""
    options = [sorted(set(col)) for col in realizations.T]
    best = None
    for selection in itertools.product(*options):
        value = min(sum(d[x, y] for x, y in zip(selection, w)) for w in words)
        if best is None or value > best[0]:
            best = (value, selection)
    return best[0] / len(options), list(best[1])


class TestBestResponse:
    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force(self, trial):
        # integer distortions keep every sum exact, so ties are real ties and
        # the lexicographically smallest maximizer is well defined
        rng = np.random.default_rng(trial)
        k, n = int(rng.integers(2, 4)), int(rng.integers(1, 7))
        hamming = trial % 2 == 0
        d = 1 - np.eye(k, dtype=int) if hamming else rng.integers(0, 4, size=(k, k))
        realizations = rng.integers(0, k, size=(int(rng.integers(1, 4)), n))
        size = int(rng.integers(1, min(k**n, 12) + 1))
        words = rng.permutation(k**n)[:size]
        words = np.array([[w // k ** (n - 1 - t) % k for t in range(n)] for w in words])
        value, vec = best_response_distortion(
            realizations, Codebook(words, n), DistortionMatrix(d.tolist())
        )
        expected_value, expected_vec = brute_force_best_response(realizations, words, d)
        assert value == expected_value
        assert vec.tolist() == expected_vec
