import math

import numpy as np
import pytest

from specdesk.errors import ParameterError, ShapeError
from specdesk.metrics import (ProposalLog, buckets_from_entropies, natural_divergence,
                              needle_metrics, shannon_entropy, tau_from_counts)


class TestNaturalDivergence:
    def test_identical(self):
        p = np.array([0.25, 0.25, 0.5])
        assert natural_divergence(p, p) == 0.0

    def test_disjoint_supports(self):
        assert natural_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_hand_value(self):
        assert natural_divergence(np.array([0.5, 0.5]),
                                  np.array([0.9, 0.1])) == pytest.approx(0.4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            natural_divergence(np.ones(2) / 2, np.ones(3) / 3)


class TestEntropyBuckets:
    def test_identical_nondegenerate_all_hard(self):
        flags = [True] * 6 + [False] * 6
        out = buckets_from_entropies([shannon_entropy(np.array([0.5, 0.5]))] * 12, flags)
        assert out["hard"] == pytest.approx(0.5)
        assert out["easy"] is None

    def test_one_hot_all_easy(self):
        ents = [shannon_entropy(np.eye(3)[i % 3]) for i in range(12)]
        out = buckets_from_entropies(ents, [True] * 12)
        assert out["easy"] == 1.0
        assert out["hard"] is None

    def test_boundary_matches_sort_quantile_oracle(self):
        rng = np.random.default_rng(0)
        n = 40
        dists = []
        for _ in range(n):
            p = rng.random(6) + 1e-6
            dists.append(p / p.sum())
        flags = list(rng.random(n) < 0.5)
        ent_arr = np.array([shannon_entropy(p) for p in dists])
        threshold = sorted(ent_arr)[math.floor(0.9 * n)]
        out = buckets_from_entropies(ent_arr, flags)
        hard_count = int(np.sum(ent_arr >= threshold))
        flags_arr = np.array(flags)
        assert out["hard"] == pytest.approx(flags_arr[ent_arr >= threshold].mean())
        assert hard_count >= 1

    def test_minimum_samples(self):
        with pytest.raises(ParameterError):
            buckets_from_entropies([0.0] * 9, [True] * 9)


class TestTau:
    def test_mean_accepted_plus_one(self):
        assert tau_from_counts([0, 1, 2, 3]) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            tau_from_counts([])


class TestNeedleMetrics:
    def test_perfect_draft_full_accuracy(self):
        expected = [5, 6, 7]
        proposals = [ProposalLog(position=i, proposed=t, committed=t,
                                 metric_prob=0.9)
                     for i, t in enumerate(expected)]
        m = needle_metrics(proposals, expected + [1, 2], expected)
        assert m.accuracy == 1.0
        assert m.reproduced

    def test_uniform_draft_perplexity_is_vocab(self):
        vocab = 32
        expected = [5, 6, 7, 8]
        proposals = [ProposalLog(position=i, proposed=0, committed=t,
                                 metric_prob=1.0 / vocab)
                     for i, t in enumerate(expected)]
        m = needle_metrics(proposals, expected, expected)
        assert m.perplexity == pytest.approx(vocab)

    def test_bonus_positions_excluded(self):
        expected = [5, 6, 7]
        # Position 1 was a bonus slot: no proposal there.
        proposals = [ProposalLog(position=0, proposed=5, committed=5, metric_prob=1.0),
                     ProposalLog(position=2, proposed=9, committed=7, metric_prob=0.5)]
        m = needle_metrics(proposals, expected, expected)
        assert m.covered == 2
        assert m.accuracy == pytest.approx(0.5)

    def test_needle_not_reached(self):
        assert needle_metrics([], [1], [1, 2, 3]) is None

    def test_log_replay_oracle(self):
        # Perplexity equals independent recomputation from the logs.
        rng = np.random.default_rng(1)
        expected = list(range(10))
        proposals = []
        probs = []
        for i in range(10):
            prob = float(rng.uniform(0.05, 1.0))
            probs.append(prob)
            proposals.append(ProposalLog(position=i, proposed=i, committed=i,
                                         metric_prob=prob))
        m = needle_metrics(proposals, expected, expected)
        assert m.perplexity == pytest.approx(
            math.exp(-sum(math.log(p) for p in probs) / len(probs)))
