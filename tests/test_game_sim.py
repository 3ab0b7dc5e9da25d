import math
from fractions import Fraction

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
