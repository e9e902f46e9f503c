"""Embedding-space analyses.

Pinned values:
  - word-alignment score of a document against itself is exactly 1.0 when
    its input embeddings are pairwise distinct.
  - reversing a 3-sentence document scores 1 + (2 + 0 + 2) / 3 == 7/3.
  - 20 documents produce C(20, 2) == 190 similarity pairs.
"""

import itertools

import numpy as np
import pytest

import doctrain.analysis as analysis
from doctrain.analysis import (CorrelationReport, paragraph_similarity,
                               pca_project, representation_correlation,
                               split_paragraphs, wl_metric)
from doctrain.errors import ConfigError, ContractError, ValidationError
from doctrain.model import DocumentModel
from doctrain.tensor import no_grad

from conftest import small_config


@pytest.fixture(scope="module")
def model():
    return DocumentModel(small_config())


def sentences(rng, n, words=4):
    pool = ["orbit", "ledger", "enzyme", "raster", "pivot", "mantle",
            "syntax", "vector", "quorum", "lattice"]
    return [" ".join(pool[rng.integers(len(pool))] for _ in range(words))
            for _ in range(n)]


class TestWlMetric:
    def test_identical_documents_score_one(self, model, rng):
        doc = sentences(rng, 4)
        assert wl_metric(model, doc, list(doc)) == 1.0

    def test_reversed_three_sentence_document(self, model, rng):
        doc = sentences(rng, 3)
        got = wl_metric(model, doc, doc[::-1])
        assert got == pytest.approx(1 + 4 / 3)

    def test_single_sentence_pair(self, model):
        assert wl_metric(model, ["alpha beta"], ["alpha beta"]) == 1.0

    def test_token_mode_identity(self, model):
        doc = ["the cat sat", "on the mat"]
        assert wl_metric(model, doc, list(doc),
                         embedding_mode="token") == 1.0

    def test_ties_prefer_the_nearer_position(self, model, monkeypatch):
        # a2 matches b0 and b3 equally well; |2-3| < |2-0| so j(2) = 3.
        # A first-hit argmax would pick b0 and report 5/3 instead.
        a = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 0, 0, 0]])
        b = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                      [0, 0, 1.0, 0], [1.0, 0, 0, 0]])
        doc_a, doc_b = ["x"] * 3, ["y"] * 4
        monkeypatch.setattr(
            DocumentModel, "embed_sentences",
            lambda _model, sents: a if sents is doc_a else b)
        assert wl_metric(model, doc_a, doc_b) == pytest.approx(1 + 1 / 3)

    def test_distance_ties_prefer_the_smaller_index(self, model, monkeypatch):
        # a1 ties with b0 and b2 at distance 1 each; j must be 0, and either
        # choice scores the same, so determinism is what the rule buys
        a = np.array([[0, 1.0], [1.0, 0]])
        b = np.array([[1.0, 0], [0, 1.0], [1.0, 0]])
        doc_a, doc_b = ["x"] * 2, ["y"] * 3
        monkeypatch.setattr(
            DocumentModel, "embed_sentences",
            lambda _model, sents: a if sents is doc_a else b)
        assert wl_metric(model, doc_a, doc_b) == pytest.approx(1 + 1.0)

    def test_mode_and_empty_validation(self, model):
        with pytest.raises(ConfigError, match="sentence"):
            wl_metric(model, ["a"], ["b"], embedding_mode="word")
        with pytest.raises(ContractError):
            wl_metric(model, [], ["b"])
        with pytest.raises(ContractError):
            wl_metric(model, ["a"], [])


class TestRepresentationCorrelation:
    def test_twenty_documents_make_190_pairs(self, model, rng):
        docs = [sentences(rng, 2) for _ in range(20)]
        report = representation_correlation(model, docs)
        assert report.num_pairs == 190

    def test_identical_paths_correlate_perfectly(self, model, rng, monkeypatch):
        vecs = rng.normal(size=(8, 5))
        monkeypatch.setattr(analysis, "_doc_vectors",
                            lambda _m, _d: (vecs, vecs.copy()))
        report = representation_correlation(model, [["a"]] * 8)
        assert report.degenerate is False
        assert report.pearson_r == pytest.approx(1.0)
        assert report.num_pairs == 28

    def test_matches_an_independent_pipeline(self, model, rng, monkeypatch):
        sent = rng.normal(size=(7, 6))
        tok = rng.normal(size=(7, 6))
        monkeypatch.setattr(analysis, "_doc_vectors",
                            lambda _m, _d: (sent, tok))
        report = representation_correlation(model, [["a"]] * 7)

        def cosines(vecs):
            unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            sims = unit @ unit.T
            return np.array([sims[i, j] for i, j
                             in itertools.combinations(range(7), 2)])

        def norm01(x):
            return (x - x.min()) / (x.max() - x.min())

        want = np.corrcoef(norm01(cosines(sent)), norm01(cosines(tok)))[0, 1]
        assert report.pearson_r == pytest.approx(want, abs=1e-12)

    def test_zero_spread_is_flagged_degenerate(self, model, rng, monkeypatch):
        sent = rng.normal(size=(5, 4))
        tok = np.tile(rng.normal(size=4), (5, 1))  # all cosines exactly 1
        monkeypatch.setattr(analysis, "_doc_vectors",
                            lambda _m, _d: (sent, tok))
        report = representation_correlation(model, [["a"]] * 5)
        assert report.degenerate is True
        assert report.pearson_r is None
        assert report.num_pairs == 10

    def test_sentence_truncation_is_one_summary_line(self, rng, caplog):
        model = DocumentModel(small_config(max_sentences=2))
        docs = [sentences(rng, n) for n in (1, 3, 2, 5)]
        with caplog.at_level("WARNING", logger="doctrain.model"):
            representation_correlation(model, docs)
        assert [r.message for r in caplog.records] == [
            "truncated 2 of 4 documents to max_sentences=2"]

    def test_token_truncation_is_one_summary_line(self, rng, caplog):
        model = DocumentModel(small_config(max_positions=8))
        docs = [sentences(rng, n) for n in (1, 3, 2, 5)]  # 4 words each
        with caplog.at_level("WARNING", logger="doctrain.analysis"):
            representation_correlation(model, docs)
        assert [r.message for r in caplog.records] == [
            "truncated 2 of 4 documents to max_positions=8"]

    def test_batched_token_vectors_match_each_document_alone(self, model, rng):
        """Documents of equal token count are encoded together; each vector
        has the bits of its document encoded alone."""
        docs = [sentences(rng, n) for n in [3] * 12 + [1, 2, 1, 5]]
        _, tok = analysis._doc_vectors(model, docs)
        with no_grad():
            for doc, vec in zip(docs, tok):
                ids = analysis._token_ids(model, [doc])
                alone = model.encode_token_batch(ids).data[0].mean(axis=0)
                assert np.array_equal(vec, alone)

    def test_needs_three_documents(self, model, rng):
        with pytest.raises(ValidationError, match="3"):
            representation_correlation(model, [sentences(rng, 1)] * 2)

    def test_report_rejects_out_of_range_r(self):
        with pytest.raises(ContractError):
            CorrelationReport(1.5, 3, False)

    def test_end_to_end_on_real_documents(self, model, rng):
        docs = [sentences(rng, 3) for _ in range(6)]
        report = representation_correlation(model, docs)
        assert report.num_pairs == 15
        if not report.degenerate:
            assert -1.0 <= report.pearson_r <= 1.0


class TestPcaProject:
    def test_recovers_a_line(self):
        u = np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)
        t = np.linspace(-3, 3, 12).reshape(-1, 1)
        result = pca_project(t * u, k=1)
        assert np.allclose(result.components[0], u, atol=1e-8)
        assert result.explained_variance[0] == pytest.approx(1.0)
        assert np.allclose(result.coordinates[:, 0], t[:, 0], atol=1e-8)

    def test_agrees_with_eigendecomposition(self, rng):
        x = rng.normal(size=(40, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
        result = pca_project(x, k=3, seed=1)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        for c in range(3):
            want_vec = eigvecs[:, order[c]]
            assert abs(result.components[c] @ want_vec) == pytest.approx(
                1.0, abs=1e-6)
            want_frac = eigvals[order[c]] / eigvals.sum()
            assert result.explained_variance[c] == pytest.approx(
                want_frac, abs=1e-6)

    def test_components_are_orthonormal(self, rng):
        result = pca_project(rng.normal(size=(30, 5)), k=4)
        gram = result.components @ result.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-6)

    def test_full_rank_projection_preserves_distances(self, rng):
        x = rng.normal(size=(30, 6))
        result = pca_project(x, k=6)
        centered = x - x.mean(axis=0)
        for i, j in itertools.combinations(range(8), 2):
            before = np.linalg.norm(centered[i] - centered[j])
            after = np.linalg.norm(result.coordinates[i]
                                   - result.coordinates[j])
            assert abs(before - after) <= 1e-4

    def test_explained_variance_is_sorted_and_bounded(self, rng):
        result = pca_project(rng.normal(size=(25, 7)), k=5)
        ev = result.explained_variance
        assert all(ev[i] >= ev[i + 1] - 1e-12 for i in range(4))
        assert 0.0 <= ev.sum() <= 1.0 + 1e-9

    def test_deterministic_per_seed(self, rng):
        x = rng.normal(size=(20, 4))
        a = pca_project(x, k=2, seed=3)
        b = pca_project(x, k=2, seed=3)
        assert np.array_equal(a.coordinates, b.coordinates)
        assert np.array_equal(a.components, b.components)

    def test_seed_does_not_change_the_subspace(self, rng):
        x = rng.normal(size=(20, 5)) * np.array([4, 2, 1, 0.5, 0.2])
        a = pca_project(x, k=2, seed=0)
        b = pca_project(x, k=2, seed=99)
        proj_a = a.components.T @ a.components
        proj_b = b.components.T @ b.components
        assert np.allclose(proj_a, proj_b, atol=1e-6)

    def test_validation(self, rng):
        x = rng.normal(size=(5, 3))
        with pytest.raises(ConfigError):
            pca_project(x, k=0)
        with pytest.raises(ConfigError):
            pca_project(x, k=4)
        with pytest.raises(ConfigError):
            pca_project(np.ones(5), k=1)
        with pytest.raises(ValidationError):
            pca_project(rng.normal(size=(2, 4)), k=3)


class TestParagraphSimilarity:
    def test_identical_documents_score_one_everywhere(self):
        doc = "the cat sat on the mat\n\na dog barked at dawn"
        report = paragraph_similarity(doc, doc)
        assert np.allclose(report.scores_a, 1.0)
        assert np.allclose(report.scores_b, 1.0)
        assert report.histogram.sum() == 4

    def test_disjoint_vocabulary_scores_zero(self):
        report = paragraph_similarity("alpha beta gamma", "delta epsilon zeta")
        assert np.allclose(report.scores_a, 0.0)
        assert np.allclose(report.scores_b, 0.0)
        assert report.histogram[0] == 2

    def test_shared_words_rank_above_unrelated(self):
        doc_a = "the printer jams on thick paper\n\nquarterly revenue rose"
        doc_b = "paper jams plague the printer daily"
        report = paragraph_similarity(doc_a, doc_b)
        assert report.scores_a[0] > report.scores_a[1]

    def test_histogram_has_ten_bins_over_unit_interval(self):
        report = paragraph_similarity("a b c", "c d e\n\nf g h")
        assert report.bin_edges.shape == (11,)
        assert report.bin_edges[0] == 0.0 and report.bin_edges[-1] == 1.0
        assert report.histogram.shape == (10,)
        assert report.histogram.sum() == 3

    def test_empty_document_rejected(self):
        with pytest.raises(ContractError):
            paragraph_similarity("", "a b")
        with pytest.raises(ContractError):
            paragraph_similarity("a b", " \n\n ")

    def test_split_paragraphs(self):
        got = split_paragraphs("one two\n\n\n\n  three  \n\n")
        assert got == ["one two", "three"]
