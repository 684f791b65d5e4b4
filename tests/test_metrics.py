import random

import numpy as np
import pytest

from sarsa_arena.metrics import (
    centred_moving_average,
    hit_percentage,
    kd_ratio,
    summarize_field,
)


class TestKdRatio:
    @pytest.mark.parametrize(
        "kills,killed_by,suicides,expected",
        [
            (112_420, 48_299, 11_701, 1.8737),
            (63_934, 52_994, 7_006, 1.0656),
            (40_466, 54_136, 5_864, 0.6744),
            (0, 1, 0, 0.0),
        ],
    )
    def test_reference_ratios(self, kills, killed_by, suicides, expected):
        assert kd_ratio(kills, killed_by, suicides) == pytest.approx(expected, abs=5e-4)

    def test_undefined_without_deaths(self):
        assert kd_ratio(10, 0, 0) is None


class TestHitPercentage:
    @pytest.mark.parametrize(
        "hits,misses,expected",
        [
            (9.82, 26.84, 26.8),
            (7.30, 21.41, 25.4),
            (4.70, 17.83, 20.9),
            (5, 0, 100.0),
        ],
    )
    def test_reference_percentages(self, hits, misses, expected):
        assert hit_percentage(hits, misses) == pytest.approx(expected, abs=0.05)

    def test_undefined_without_shots(self):
        assert hit_percentage(0, 0) is None


class TestCma:
    def test_constant_series(self):
        out = centred_moving_average([7.0] * 20)
        assert out == pytest.approx([7.0] * 10)

    def test_ramp_centre_value(self):
        out = centred_moving_average(list(range(1, 22)))
        # Centre of the 21-sample ramp (value 11) keeps its own mean.
        assert out[5] == pytest.approx(11.0)

    def test_short_series_is_empty(self):
        assert len(centred_moving_average([1.0] * 10)) == 0

    def test_matches_brute_force_on_random_series(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(11, 80)
            series = [rng.uniform(-100, 100) for _ in range(n)]
            out = centred_moving_average(series)
            assert len(out) == n - 10
            for i, value in enumerate(out):
                window = series[i : i + 11]
                assert value == pytest.approx(sum(window) / 11, rel=1e-12)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            centred_moving_average([1.0] * 20, window=10)

    @pytest.mark.parametrize("window", [1, 3, 11])
    def test_equals_numpy_convolution_value_for_value(self, window):
        rng = random.Random(window)
        for n in range(1, 121):
            for series in (
                [rng.randrange(0, 30) for _ in range(n)],
                [rng.uniform(-100, 100) for _ in range(n)],
            ):
                ref = np.convolve(
                    np.asarray(series, dtype=float),
                    np.full(window, 1.0 / window), mode="valid",
                ) if n >= window else np.empty(0)
                assert centred_moving_average(series, window) == ref.tolist()


class TestSummarize:
    def test_single_record(self):
        s = summarize_field([4.0])
        assert (s.mean, s.std, s.minimum, s.maximum, s.median) == (4, 0, 4, 4, 4)

    def test_hand_arithmetic(self):
        s = summarize_field([1, 2, 3, 4])
        assert s.mean == pytest.approx(2.5)
        assert s.median == 2  # lower middle for even counts
        assert s.std == pytest.approx(1.118033988749895)

    def test_zero_shot_life_contributes_zero_minimum(self):
        s = summarize_field([0, 12, 7, 30])
        assert s.minimum == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_field([])

    def test_report_text_equals_numpy_reference(self):
        # format_report prints mean and std with .2f and the rest with .0f.
        # The standard library's std can differ from numpy's in the last
        # ulp; the printed text must not.
        rng = random.Random(11)
        series = [
            [rng.randrange(0, top) for _ in range(rng.randrange(1, 121))]
            for top in (rng.choice((3, 10, 60)) for _ in range(2000))
        ]
        # std exactly 1.125, which .2f rounds to 1.12; one ulp more reads 1.13.
        series.append([0] * 6 + [1] * 19 + [3] * 39)
        for values in series:
            arr = np.asarray(values, dtype=float)
            s = summarize_field(values)
            ref = (arr.mean(), arr.std(), arr.min(), arr.max(), np.sort(arr)[(arr.size - 1) // 2])
            assert (
                f"{s.mean:.2f} {s.std:.2f} {s.minimum:.0f} {s.maximum:.0f} {s.median:.0f}"
                == "{:.2f} {:.2f} {:.0f} {:.0f} {:.0f}".format(*map(float, ref))
            )
