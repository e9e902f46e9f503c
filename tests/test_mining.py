"""Triplet mining soundness, doubling rules, and failure reporting.

Pinned mining facts exercised below:
  - a two-plus-one category split admits exactly one unordered triplet, so
    count=1 must return the two same-category docs plus the singleton.
  - scientific and legal modes append the swapped copy of each triplet
    (positive becomes anchor), so they return exactly 2*count rows.
  - customer_support returns exactly count rows, no swaps.
"""

import json
from collections import Counter

import pytest

from doctrain.corpus import Corpus, Document
from doctrain.errors import (ConfigError, DataError, MiningExhausted,
                             NoNegativeAvailable, ParseError)
from doctrain.mining import (Triplet, load_triplets, mine_triplets_metadata,
                             mine_triplets_rouge, save_triplets)
from doctrain.rouge import rouge_from_lcs, rouge_l
from doctrain.text import tokenize


def doc(doc_id, category=None, concepts=None, words="filler words here"):
    return Document(id=doc_id, sentences=(f"{words}.",), category=category,
                    concepts=frozenset(concepts) if concepts else None)


def category_corpus(spec, mode="customer_support"):
    """spec like {'A': 2, 'B': 1} -> docs a1, a2, b1."""
    docs = []
    for cat, n in spec.items():
        for i in range(1, n + 1):
            docs.append(doc(f"{cat.lower()}{i}", category=cat))
    return Corpus(docs, mode)


class TestMetadataCategoryModes:
    def test_two_plus_one_split_has_one_possible_triplet(self):
        corpus = category_corpus({"A": 2, "B": 1})
        (t,) = mine_triplets_metadata(corpus, count=1, seed=0)
        assert {t.anchor_id, t.positive_id} == {"a1", "a2"}
        assert t.negative_id == "b1"

    def test_customer_support_returns_exactly_count(self):
        corpus = category_corpus({"A": 3, "B": 3})
        assert len(mine_triplets_metadata(corpus, count=7, seed=1)) == 7

    def test_scientific_doubles_with_interleaved_swaps(self):
        corpus = category_corpus({"A": 3, "B": 3}, mode="scientific")
        out = mine_triplets_metadata(corpus, count=5, seed=2)
        assert len(out) == 10
        for i in range(0, 10, 2):
            first, second = out[i], out[i + 1]
            assert second == Triplet(first.positive_id, first.anchor_id,
                                     first.negative_id)

    def test_every_triplet_satisfies_the_category_relation(self):
        corpus = category_corpus({"A": 4, "B": 3, "C": 2})
        for t in mine_triplets_metadata(corpus, count=50, seed=3):
            cat = lambda i: corpus.get(i).category
            assert len({t.anchor_id, t.positive_id, t.negative_id}) == 3
            assert cat(t.anchor_id) == cat(t.positive_id)
            assert cat(t.negative_id) != cat(t.anchor_id)

    def test_single_category_names_it_in_the_error(self):
        corpus = category_corpus({"Widgets": 4})
        with pytest.raises(NoNegativeAvailable, match="Widgets"):
            mine_triplets_metadata(corpus, count=1)

    def test_no_positive_pairs_is_a_data_error(self):
        corpus = category_corpus({"A": 1, "B": 1, "C": 1})
        with pytest.raises(DataError, match="positive"):
            mine_triplets_metadata(corpus, count=1)

    def test_seed_determinism(self):
        corpus = category_corpus({"A": 4, "B": 4})
        a = mine_triplets_metadata(corpus, count=20, seed=11)
        b = mine_triplets_metadata(corpus, count=20, seed=11)
        c = mine_triplets_metadata(corpus, count=20, seed=12)
        assert a == b
        assert a != c

    def test_count_and_mode_validation(self):
        corpus = category_corpus({"A": 2, "B": 2})
        with pytest.raises(ConfigError):
            mine_triplets_metadata(corpus, count=0)
        derived = Corpus([doc("a"), doc("b"), doc("c")], "derived")
        with pytest.raises(ConfigError, match="rouge"):
            mine_triplets_metadata(derived, count=1)

    def test_tiny_corpus_rejected(self):
        corpus = category_corpus({"A": 2})
        with pytest.raises(DataError, match="3"):
            mine_triplets_metadata(corpus, count=1)


class TestMetadataLegalMode:
    def corpus(self):
        return Corpus([
            doc("lease1", concepts={"lease", "deposit"}),
            doc("lease2", concepts={"lease"}),
            doc("tort1", concepts={"tort", "injury"}),
            doc("tort2", concepts={"injury"}),
            doc("tax1", concepts={"levy"}),
        ], "legal")

    def test_doubles_and_satisfies_union_disjointness(self):
        corpus = self.corpus()
        out = mine_triplets_metadata(corpus, count=8, seed=4)
        assert len(out) == 16
        con = lambda i: corpus.get(i).concepts
        for i in range(0, 16, 2):
            t, swapped = out[i], out[i + 1]
            assert swapped == Triplet(t.positive_id, t.anchor_id, t.negative_id)
            assert con(t.anchor_id) & con(t.positive_id)
            # negative avoids BOTH sides, so the swap is valid too
            union = con(t.anchor_id) | con(t.positive_id)
            assert not (con(t.negative_id) & union)

    def test_all_overlapping_names_the_concepts(self):
        corpus = Corpus([
            doc("a", concepts={"shared", "x"}),
            doc("b", concepts={"shared"}),
            doc("c", concepts={"shared", "y"}),
        ], "legal")
        with pytest.raises(NoNegativeAvailable, match="shared"):
            mine_triplets_metadata(corpus, count=1)

    def test_no_shared_concepts_is_a_data_error(self):
        corpus = Corpus([
            doc("a", concepts={"x"}),
            doc("b", concepts={"y"}),
            doc("c", concepts={"z"}),
        ], "legal")
        with pytest.raises(DataError, match="positive"):
            mine_triplets_metadata(corpus, count=1)


class TestRougeMining:
    def paraphrase_corpus(self):
        """Two near-duplicate pairs with disjoint vocabularies."""
        return Corpus([
            doc("p1a", words="alpha beta gamma delta epsilon"),
            doc("p1b", words="alpha beta gamma delta zeta"),
            doc("p2a", words="one two three four five"),
            doc("p2b", words="one two three four six"),
        ], "derived")

    def test_mined_triplets_respect_thresholds(self):
        corpus = self.paraphrase_corpus()
        out = mine_triplets_rouge(corpus, count=12, seed=5,
                                  pos_threshold=0.5, neg_threshold=0.10)
        assert len(out) == 12
        toks = {d.id: tokenize(" ".join(d.sentences)) for d in corpus}
        for t in out:
            assert len({t.anchor_id, t.positive_id, t.negative_id}) == 3
            assert rouge_l(toks[t.anchor_id], toks[t.positive_id]).f1 >= 0.5
            assert rouge_l(toks[t.anchor_id], toks[t.negative_id]).f1 <= 0.10

    def test_pairs_always_cross_the_vocabulary_split(self):
        corpus = self.paraphrase_corpus()
        pair = {"p1a": "p1", "p1b": "p1", "p2a": "p2", "p2b": "p2"}
        for t in mine_triplets_rouge(corpus, count=20, seed=6,
                                     pos_threshold=0.5):
            assert pair[t.anchor_id] == pair[t.positive_id]
            assert pair[t.negative_id] != pair[t.anchor_id]

    def test_exhaustion_reports_progress_and_thresholds(self):
        corpus = Corpus([
            doc("a", words="completely distinct first text"),
            doc("b", words="another unrelated second string"),
            doc("c", words="nothing matches here either"),
        ], "derived")
        with pytest.raises(MiningExhausted, match="0/1"):
            mine_triplets_rouge(corpus, count=1, seed=0, pos_threshold=0.9)

    def test_threshold_validation(self):
        corpus = self.paraphrase_corpus()
        with pytest.raises(ConfigError):
            mine_triplets_rouge(corpus, count=1, pos_threshold=0.1,
                                neg_threshold=0.5)
        with pytest.raises(ConfigError):
            mine_triplets_rouge(corpus, count=1, truncate_tokens=0)
        with pytest.raises(ConfigError):
            mine_triplets_rouge(corpus, count=0)

    def test_truncation_changes_the_relation(self):
        # truncated to 1 token, the two pairs collide on nothing while both
        # in-pair prefixes match exactly
        corpus = self.paraphrase_corpus()
        out = mine_triplets_rouge(corpus, count=5, seed=7,
                                  pos_threshold=1.0, neg_threshold=0.0,
                                  truncate_tokens=1)
        assert len(out) == 5

    def test_seed_determinism(self):
        corpus = self.paraphrase_corpus()
        a = mine_triplets_rouge(corpus, count=10, seed=8, pos_threshold=0.5)
        assert a == mine_triplets_rouge(corpus, count=10, seed=8,
                                        pos_threshold=0.5)

    def test_mined_triplets_are_pinned(self):
        """A fixed corpus and seed mine these triplets, recorded before the
        overlap prefilter and the bit-parallel LCS existed. Reversed word
        orders share every token but one in order, so some negatives are
        settled only by the LCS; disjoint vocabularies settle others on the
        overlap bound alone."""
        words = {
            "a1": "alpha beta gamma delta epsilon zeta",
            "a2": "alpha beta gamma delta epsilon eta",
            "r1": "zeta epsilon delta gamma beta alpha",
            "r2": "eta epsilon delta gamma beta alpha",
            "b1": "one two three four five six",
            "b2": "one two three four five seven",
        }
        corpus = Corpus([doc(k, words=v) for k, v in words.items()],
                        "derived")
        out = mine_triplets_rouge(corpus, count=12, seed=3,
                                  pos_threshold=0.5, neg_threshold=0.3)
        assert [(t.anchor_id, t.positive_id, t.negative_id) for t in out] == [
            ("a2", "a1", "b1"), ("b1", "b2", "a1"), ("a2", "a1", "b2"),
            ("b2", "b1", "a2"), ("r2", "r1", "b1"), ("b2", "b1", "a1"),
            ("a1", "a2", "b1"), ("a1", "a2", "b1"), ("r2", "r1", "a2"),
            ("a1", "a2", "b2"), ("r1", "r2", "a2"), ("a1", "a2", "r2")]
        toks = {d.id: tokenize(" ".join(d.sentences)) for d in corpus}

        def overlap_f1(a, b):
            overlap = sum((Counter(toks[a]) & Counter(toks[b])).values())
            return rouge_from_lcs(overlap, len(toks[a]), len(toks[b])).f1

        settled_by = {
            "bound" if overlap_f1(t.anchor_id, t.negative_id) <= 0.3
            else "lcs" for t in out}
        assert settled_by == {"bound", "lcs"}


class TestTripletIo:
    def test_round_trip(self, tmp_path):
        triplets = [Triplet("a", "b", "c"), Triplet("x", "y", "z")]
        path = tmp_path / "t.jsonl"
        save_triplets(triplets, path)
        assert path.read_bytes() == (
            b'{"anchor_id": "a", "negative_id": "c", "positive_id": "b"}\n'
            b'{"anchor_id": "x", "negative_id": "z", "positive_id": "y"}\n')
        assert load_triplets(path) == triplets

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"anchor_id": "a", "positive_id": "b",
                                    "negative_id": "c"}) + "\n"
                        + json.dumps({"anchor_id": "a"}) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_triplets(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n" + json.dumps({"anchor_id": "a", "positive_id": "b",
                                           "negative_id": "c"}) + "\n\n")
        assert len(load_triplets(path)) == 1
