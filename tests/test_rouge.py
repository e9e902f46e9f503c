"""Sequence-overlap scoring against a textbook dynamic program."""

import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain.rouge import RougeScore, lcs_length, rouge_from_lcs, rouge_l


def classic_lcs(a, b):
    """Quadratic-table LCS with the standard case split."""
    m, n = len(a), len(b)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[m][n]


class TestLcsLength:
    def test_known_textbook_case(self):
        assert lcs_length(list("ABCBDAB"), list("BDCABA")) == 4

    def test_cat_dog_example(self):
        assert lcs_length("the cat sat".split(), "the dog sat".split()) == 2

    def test_empty_sides(self):
        assert lcs_length([], ["a"]) == 0
        assert lcs_length(["a"], []) == 0

    def test_identical(self):
        assert lcs_length(list("abcde"), list("abcde")) == 5

    def test_disjoint(self):
        assert lcs_length(list("aaa"), list("bbb")) == 0

    def test_subsequence_not_substring(self):
        # common subsequence may skip over tokens
        assert lcs_length(list("axbycz"), list("abc")) == 3

    def test_randomized_against_classic_dp(self, rng):
        for _ in range(200):
            a = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 12))]
            b = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 12))]
            assert lcs_length(a, b) == classic_lcs(a, b), (a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=10),
           st.lists(st.sampled_from("abc"), max_size=10))
    def test_bounds_and_symmetry(self, a, b):
        lcs = lcs_length(a, b)
        assert 0 <= lcs <= min(len(a), len(b))
        assert lcs == lcs_length(b, a)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), max_size=200),
           st.lists(st.sampled_from("abcde"), max_size=200))
    def test_multiword_masks_match_classic_dp(self, a, b):
        # five symbols over up to 200 tokens: heavy repeats, and masks that
        # span several 64-bit words
        assert lcs_length(a, b) == classic_lcs(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=120),
           st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=120))
    def test_multiset_overlap_bounds_lcs_and_f1(self, a, b):
        overlap = sum((Counter(a) & Counter(b)).values())
        assert overlap >= lcs_length(a, b)
        assert (rouge_from_lcs(overlap, len(a), len(b)).f1
                >= rouge_l(a, b).f1)


class TestRougeL:
    def test_cat_dog_f1_is_two_thirds(self):
        score = rouge_l("the cat sat".split(), "the dog sat".split())
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_identical_scores_one(self):
        score = rouge_l(["a", "b", "c"], ["a", "b", "c"])
        assert score == RougeScore(1.0, 1.0, 1.0)

    def test_disjoint_scores_zero(self):
        assert rouge_l(["a"], ["b"]).f1 == 0.0

    def test_precision_and_recall_orientation(self):
        # candidate longer than reference: precision drops, recall holds
        score = rouge_l(["a", "b"], ["a", "b", "x", "y"])
        assert score.recall == 1.0
        assert score.precision == 0.5
        assert score.f1 == pytest.approx(2 * 0.5 / 1.5)

    def test_f1_is_symmetric(self, rng):
        for _ in range(50):
            a = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 9))]
            b = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 9))]
            assert rouge_l(a, b).f1 == pytest.approx(rouge_l(b, a).f1)

    def test_empty_side_warns_and_zeros(self, caplog):
        with caplog.at_level(logging.WARNING, logger="doctrain.rouge"):
            score = rouge_l([], ["a"])
        assert score == RougeScore(0.0, 0.0, 0.0)
        assert any("empty" in r.message for r in caplog.records)

    def test_f1_is_harmonic_mean(self, rng):
        for _ in range(40):
            a = [str(x) for x in rng.integers(0, 3, size=rng.integers(1, 8))]
            b = [str(x) for x in rng.integers(0, 3, size=rng.integers(1, 8))]
            s = rouge_l(a, b)
            if s.precision + s.recall > 0:
                want = 2 * s.precision * s.recall / (s.precision + s.recall)
                assert s.f1 == pytest.approx(want)
            else:
                assert s.f1 == 0.0
