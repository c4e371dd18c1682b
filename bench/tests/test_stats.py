import statistics

import pytest

from benchlib import stats


def test_quartiles_are_the_standard_library_quantiles():
    values = [0.41, 0.43, 0.40, 0.47, 0.42, 0.44, 0.60, 0.39, 0.45, 0.43]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles(values)[1] == statistics.median(values)


def test_single_sample_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        stats.quartiles([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 61))  # 1..60
    assert stats.percentile(values, 80) == 48
    assert stats.percentile(values, 50) == 30
    assert stats.percentile(values, 100) == 60
    assert stats.percentile([3.0, 1.0, 2.0], 1) == 1.0
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_samples_beyond_counts_what_lies_past_the_percentile():
    assert stats.samples_beyond(60, 80) == 12
    assert stats.samples_beyond(60, 90) == 6
    assert stats.samples_beyond(50, 80) == 10


@pytest.mark.parametrize("n, expected", [
    (19, None),   # not even the median has ten beyond it
    (20, 50.0),
    (49, 50.0),   # p80 would have only nine beyond
    (50, 80.0),
    (60, 80.0),   # the issue's sizing: twelve beyond p80
    (100, 90.0),
    (1000, 99.0),
])
def test_ten_samples_beyond_rule(n, expected):
    assert stats.supported_percentile(n) == expected


def test_summary_keeps_every_sample():
    summary = stats.summary([3, 1, 2])
    assert summary["n"] == 3
    assert summary["median"] == 2
    assert summary["samples"] == [3.0, 1.0, 2.0]
