import statistics

import pytest

from probe import R0
from stats import HALF_WINDOW, normalize, rolling_medians, self_times, tail


def test_rolling_median_clips_the_window_at_both_ends():
    assert HALF_WINDOW == 4
    probes = [float(v) for v in range(1, 11)]
    # Op 0 sees probes 1-5, op 1 sees 1-6, op 4 sees 1-9, op 5 sees
    # 2-10, op 9 sees 6-10.
    medians = rolling_medians(probes)
    assert [medians[i] for i in (0, 1, 4, 5, 9)] == [3.0, 3.5, 5.0, 6.0, 8.0]
    assert rolling_medians([]) == []


def test_normalization_cancels_a_host_slowdown():
    # The host runs at half speed for the second half: ops and probes
    # both take twice as long there.
    ops = [0.1] * 10 + [0.2] * 10
    probes = [R0] * 10 + [2 * R0] * 10
    normalized, refs = normalize(ops, probes)
    assert refs[0] == R0 and refs[-1] == 2 * R0
    # The window's median switches regime exactly where the host does.
    assert refs[9] == R0 and refs[10] == 2 * R0
    assert normalized == pytest.approx([0.1] * 20)
    assert statistics.median(normalized) == pytest.approx(0.1)


def test_normalization_scales_to_r0_and_rejects_mismatched_series():
    normalized, refs = normalize([0.3, 0.3, 0.3], [3 * R0] * 3)
    assert normalized == pytest.approx([0.1, 0.1, 0.1])
    assert refs == [3 * R0] * 3
    with pytest.raises(ValueError):
        normalize([0.1, 0.2], [R0])


def test_rolling_median_ignores_a_lone_outlier_probe():
    ops = [0.1] * 9
    probes = [R0] * 4 + [100 * R0] + [R0] * 4
    normalized, _ = normalize(ops, probes)
    assert normalized == pytest.approx([0.1] * 9)


@pytest.mark.parametrize(
    "n, percentile, rank", [(11, 9, 1), (20, 50, 10), (60, 83, 50), (100, 90, 90)]
)
def test_tail_leaves_ten_values_beyond_it(n, percentile, rank):
    values = [float(v) for v in range(1, n + 1)]
    got_percentile, value = tail(list(reversed(values)))
    assert got_percentile == percentile
    assert value == rank
    assert sum(v > value for v in values) >= 10


def test_tail_needs_more_than_ten_values():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_self_time_of_nested_spans():
    spans = [
        (-1, 0.0, 10.0),  # root
        (0, 1.0, 4.0),    # child
        (1, 2.0, 3.0),    # grandchild
        (0, 5.0, 9.0),    # second child
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # Self times of a tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_of_recursive_spans():
    # f calls f calls f: each level is its own span with the same name.
    spans = [(-1, 0.0, 8.0), (0, 1.0, 6.0), (1, 2.0, 3.0)]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 4.0, 1.0])
    assert sum(own) == pytest.approx(8.0)


def test_self_time_counts_overlap_and_overhang_once():
    spans = [(-1, 0.0, 10.0), (0, 2.0, 6.0), (0, 4.0, 8.0), (0, 9.0, 12.0)]
    # Children cover [2, 8] and [9, 10] of the parent.
    assert self_times(spans)[0] == pytest.approx(3.0)
