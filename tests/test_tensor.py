import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdesk.errors import ParameterError
from specdesk.model import next_token_dist
from specdesk.tensor import Rng, sample_categorical


class TestSoftmaxRows:
    """``next_token_dist`` is the package's softmax over a logits row."""

    def test_symmetry(self):
        out = next_token_dist(np.zeros(3), 1.0)
        assert np.allclose(out, 1.0 / 3.0)

    def test_dominance(self):
        out = next_token_dist(np.array([100.0, 0.0, 0.0]), 1.0)
        assert abs(out[0] - 1.0) < 1e-9
        assert out[1] < 1e-9 and out[2] < 1e-9

    def test_high_precision_oracle(self):
        # Oracle: 113-bit evaluation via mpmath.
        import mpmath as mp

        mp.mp.prec = 113
        row = [1.0, 2.0, 3.0]
        exps = [mp.exp(mp.mpf(v) - 3) for v in row]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        got = next_token_dist(np.array(row), 1.0)
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_bad_temperature(self):
        for temperature in (-1.0, -1e-9):
            with pytest.raises(ParameterError):
                next_token_dist(np.zeros(2), temperature)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                             min_size=2, max_size=8),
                    min_size=1, max_size=6).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = np.array([next_token_dist(np.array(r, dtype=np.float64), 1.0)
                        for r in rows])
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) < 1e-9)
        assert np.all(out >= 0)

    def test_temperature_scales(self):
        x = np.array([1.0, 2.0])
        hot = next_token_dist(x, 10.0)
        cold = next_token_dist(x, 0.1)
        assert hot[1] < cold[1]


class TestSampleCategorical:
    def test_degenerate(self):
        rng = Rng(0)
        for _ in range(50):
            assert sample_categorical(np.array([0.0, 1.0, 0.0]), rng) == 1

    def test_law_of_large_numbers(self):
        rng = Rng(123)
        p = np.array([0.5, 0.5])
        n = 1_000_000
        ones = sum(sample_categorical(p, rng) for _ in range(n))
        assert abs(ones / n - 0.5) < 0.002

    def test_determinism(self):
        p = np.array([0.2, 0.3, 0.5])
        draws_a = [sample_categorical(p, Rng(42 + i)) for i in range(20)]
        draws_b = [sample_categorical(p, Rng(42 + i)) for i in range(20)]
        assert draws_a == draws_b
        rng1, rng2 = Rng(9), Rng(9)
        assert [sample_categorical(p, rng1) for _ in range(100)] == \
               [sample_categorical(p, rng2) for _ in range(100)]

    def test_negative_entries(self):
        with pytest.raises(ParameterError):
            sample_categorical(np.array([-0.1, 1.1]), Rng(0))

    def test_bad_sum(self):
        with pytest.raises(ParameterError):
            sample_categorical(np.array([0.5, 0.4]), Rng(0))

    def test_tv_distance_8way(self):
        rng = Rng(77)
        p = np.array([0.05, 0.1, 0.02, 0.23, 0.2, 0.15, 0.05, 0.2])
        n = 100_000
        counts = np.zeros(8)
        for _ in range(n):
            counts[sample_categorical(p, rng)] += 1
        tv = 0.5 * np.abs(counts / n - p).sum()
        assert tv <= 0.01


def test_rng_same_seed_same_stream():
    a, b = Rng(314), Rng(314)
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


def test_rng_known_first_draw():
    # PCG64 stream is platform-stable; freeze one value as a tripwire.
    assert Rng(0).uniform() == pytest.approx(0.6369616873214543, abs=1e-15)
