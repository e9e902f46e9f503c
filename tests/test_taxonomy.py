"""Taxonomy structures, label padding, category mapping, and derivation.

Pinned values exercised below:
  - a two-label path in a depth-3 taxonomy pads to [idx, idx, null].
  - "stereo equalizer" maps onto the path ending "Audio Players & Recorders >
    Stereo Systems" under the shipped fixture vectors; an independent
    brute-force cosine over the same file agrees.
"""

from pathlib import Path

import numpy as np
import pytest

from doctrain.corpus import Corpus, Document
from doctrain.encoder import ClassificationHeads
from doctrain.errors import (ConfigError, DataError, ParseError,
                             UnmappableCategory, ValidationError)
from doctrain.taxonomy import (HierarchyLabels, Taxonomy, WordVectors,
                               _tfidf_matrix, derive_taxonomy,
                               map_category_to_hierarchy, pad_hierarchy)

from conftest import separable_corpus

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CS_PATHS = [
    ("Computer Science", "Machine Learning", "Deep Learning"),
    ("Computer Science", "Systems", "Databases"),
    ("Mathematics", "Algebra"),
]


class TestTaxonomyStructure:
    def test_from_paths_sorts_and_dedupes(self):
        tax = Taxonomy.from_paths([("B", "x"), ("A", "y"), ("B", "x")])
        assert tax.paths == (("A", "y"), ("B", "x"))

    def test_level_vocabularies_are_sorted_and_indexed(self):
        tax = Taxonomy.from_paths(CS_PATHS)
        assert tax.depth == 3
        assert tax.levels[0] == {"Computer Science": 0, "Mathematics": 1}
        assert tax.levels[1] == {"Algebra": 0, "Machine Learning": 1,
                                 "Systems": 2}
        assert tax.levels[2] == {"Databases": 0, "Deep Learning": 1}

    def test_null_class_sits_at_the_last_index(self):
        tax = Taxonomy.from_paths(CS_PATHS)
        heads = ClassificationHeads(4, tax.level_sizes)
        for lv in range(tax.depth):
            assert tax.null_index(lv) == len(tax.levels[lv])
            # the null class is the last column of its level's head
            assert heads.biases[lv].shape == (tax.null_index(lv) + 1,)

    def test_level_sizes_exclude_the_null_class(self):
        tax = Taxonomy.from_paths(CS_PATHS)
        assert tax.level_sizes == (2, 3, 2)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            Taxonomy.from_paths([])
        with pytest.raises(ValidationError):
            Taxonomy.from_paths([()])

    def test_file_round_trip(self, tmp_path):
        tax = Taxonomy.from_paths(CS_PATHS)
        out = tmp_path / "tax.txt"
        tax.save(out)
        assert Taxonomy.load(out) == tax

    def test_load_parses_separator_and_skips_blanks(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("A > b > c\n\n  A > d  \n")
        tax = Taxonomy.load(path)
        assert tax.paths == (("A", "b", "c"), ("A", "d"))

    def test_load_rejects_empty_labels_and_empty_files(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("A >  > c\n")
        with pytest.raises(ParseError, match="line 1"):
            Taxonomy.load(bad)
        empty = tmp_path / "none.txt"
        empty.write_text("\n\n")
        with pytest.raises(ParseError):
            Taxonomy.load(empty)


class TestPadHierarchy:
    def test_partial_path_pads_with_nulls(self):
        tax = Taxonomy.from_paths(CS_PATHS)
        got = pad_hierarchy(("Computer Science", "Machine Learning"), tax)
        assert got == HierarchyLabels((0, 1, tax.null_index(2)))

    def test_empty_path_is_all_nulls(self):
        tax = Taxonomy.from_paths(CS_PATHS)
        got = pad_hierarchy((), tax)
        assert got.indices == tuple(tax.null_index(lv) for lv in range(3))

    def test_full_path_has_no_nulls(self):
        tax = Taxonomy.from_paths(CS_PATHS)
        got = pad_hierarchy(("Computer Science", "Systems", "Databases"), tax)
        assert got.indices == (0, 2, 0)
        assert all(got.indices[lv] != tax.null_index(lv) for lv in range(3))

    def test_too_deep_and_unknown_labels(self):
        tax = Taxonomy.from_paths(CS_PATHS)
        with pytest.raises(ValidationError, match="depth"):
            pad_hierarchy(("a", "b", "c", "d"), tax)
        with pytest.raises(ValidationError, match="level 1"):
            pad_hierarchy(("Computer Science", "Basket Weaving"), tax)


class TestWordVectors:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("Alpha 1 2 3\nbeta 0 0 1\n")
        wv = WordVectors.load(path)
        assert wv.dim == 3
        assert np.array_equal(wv.get("ALPHA"), [1, 2, 3])  # case-folded
        assert "beta" in wv and "gamma" not in wv

    def test_oov_tokens_map_to_zero(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1 2\n")
        wv = WordVectors.load(path)
        assert np.array_equal(wv.get("missing"), [0, 0])
        # OOV zeros participate in the mean instead of being dropped
        assert np.array_equal(wv.mean_vector(["alpha", "missing"]), [0.5, 1.0])

    def test_mean_of_nothing_is_zero(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1 2\n")
        assert np.array_equal(WordVectors.load(path).mean_vector([]), [0, 0])

    def test_parse_errors_name_lines(self, tmp_path):
        ragged = tmp_path / "r.txt"
        ragged.write_text("alpha 1 2\nbeta 1 2 3\n")
        with pytest.raises(ParseError, match="line 2"):
            WordVectors.load(ragged)
        non_numeric = tmp_path / "n.txt"
        non_numeric.write_text("alpha one two\n")
        with pytest.raises(ParseError, match="line 1"):
            WordVectors.load(non_numeric)
        bare = tmp_path / "b.txt"
        bare.write_text("alpha\n")
        with pytest.raises(ParseError, match="line 1"):
            WordVectors.load(bare)
        empty = tmp_path / "e.txt"
        empty.write_text("\n")
        with pytest.raises(ParseError, match="empty"):
            WordVectors.load(empty)


class TestCategoryMapping:
    def fixture_inputs(self):
        return (Taxonomy.load(FIXTURES / "product_taxonomy.txt"),
                WordVectors.load(FIXTURES / "word_vectors.txt"))

    def test_exact_leaf_match_short_circuits(self):
        tax, _ = self.fixture_inputs()
        # empty vector table proves the vectors are never consulted
        got = map_category_to_hierarchy("stereo systems", tax,
                                        WordVectors({}, 4))
        assert got[-1] == "Stereo Systems"

    def test_stereo_equalizer_lands_on_stereo_systems(self):
        tax, wv = self.fixture_inputs()
        got = map_category_to_hierarchy("stereo equalizer", tax, wv)
        assert got[-2:] == ("Audio Players & Recorders", "Stereo Systems")

    def test_agreement_with_brute_force_cosine_oracle(self):
        """Re-score every path with an independent cosine implementation."""
        tax, wv = self.fixture_inputs()
        category = "stereo equalizer"

        def mean_vec(tokens):
            vecs = [wv.vectors.get(t.lower(), np.zeros(wv.dim))
                    for t in tokens]
            return np.mean(vecs, axis=0)

        cat = mean_vec(category.split())
        scored = []
        for path in tax.paths:
            tail_tokens = [t for label in path[-2:]
                           for t in label.lower().split()]
            tail = mean_vec(tail_tokens)
            denom = np.linalg.norm(cat) * np.linalg.norm(tail)
            scored.append((0.0 if denom == 0 else float(cat @ tail / denom),
                           path))
        best = max(scored, key=lambda sp: sp[0])[1]
        assert map_category_to_hierarchy(category, tax, wv) == best

    def test_tie_breaks_to_first_stored_path(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("thing 1 0\nwidget 1 0\ngadget 1 0\n")
        wv = WordVectors.load(path)
        tax = Taxonomy.from_paths([("B", "widget"), ("A", "gadget")])
        # both tails score identically; sorted path order decides
        got = map_category_to_hierarchy("thing", tax, wv)
        assert got == ("A", "gadget")

    def test_unmappable_categories(self):
        tax, wv = self.fixture_inputs()
        with pytest.raises(UnmappableCategory):
            map_category_to_hierarchy("   ", tax, wv)
        with pytest.raises(UnmappableCategory, match="zzzunknown"):
            map_category_to_hierarchy("zzzunknown", tax, wv)


class TestTfidf:
    def test_rows_are_unit_norm(self):
        x, vocab = _tfidf_matrix([["a", "b", "a"], ["c"], ["b", "c"]])
        norms = np.linalg.norm(x, axis=1)
        assert np.allclose(norms, 1.0)
        assert vocab == ["a", "b", "c"]

    def test_separator_tokens_are_excluded(self):
        _, vocab = _tfidf_matrix([["a", ">", "b"]])
        assert vocab == ["a", "b"]

    def test_rarer_terms_weigh_more(self):
        x, vocab = _tfidf_matrix([["common", "rare"],
                                  ["common"], ["common"]])
        row = x[0]
        assert row[vocab.index("rare")] > row[vocab.index("common")]


class TestDeriveTaxonomy:
    def test_deterministic_across_calls(self):
        corpus = separable_corpus(per_category=5)
        a_tax, a_paths = derive_taxonomy(corpus, levels=2, seed=3)
        b_tax, b_paths = derive_taxonomy(corpus, levels=2, seed=3)
        assert a_tax == b_tax
        assert a_paths == b_paths

    def test_every_document_is_assigned_a_leaf(self):
        corpus = separable_corpus(per_category=5)
        tax, paths = derive_taxonomy(corpus, levels=2, seed=0)
        assert set(paths) == {d.id for d in corpus}
        assert set(paths.values()) == set(tax.paths)

    def test_depth_respects_the_level_budget(self):
        corpus = separable_corpus(per_category=6)
        tax, paths = derive_taxonomy(corpus, levels=2, branching=2, seed=0)
        assert tax.depth <= 2
        assert all(len(p) <= 2 for p in paths.values())

    def test_disjoint_vocabularies_split_cleanly(self):
        """One level of k=2 on two disjoint-vocabulary categories should
        separate them perfectly."""
        corpus = separable_corpus(per_category=6, seed=1)
        _, paths = derive_taxonomy(corpus, levels=1, branching=2, seed=0)
        by_cat = {}
        for doc in corpus:
            by_cat.setdefault(doc.category, set()).add(paths[doc.id])
        assert all(len(leaves) == 1 for leaves in by_cat.values())
        assert len(set().union(*by_cat.values())) == 2

    def test_deep_budget_stops_at_small_nodes(self):
        corpus = separable_corpus(per_category=4)
        tax, paths = derive_taxonomy(corpus, levels=15, branching=2, seed=0)
        assert tax.depth <= 15
        assert all(paths.values())

    def test_level_vocabularies_cover_exactly_the_path_labels(self):
        corpus = separable_corpus(per_category=6)
        tax, _ = derive_taxonomy(corpus, levels=3, seed=0)
        for lv in range(tax.depth):
            labels = {p[lv] for p in tax.paths if len(p) > lv}
            assert labels == set(tax.levels[lv])

    def test_validation(self):
        corpus = separable_corpus(per_category=3)
        with pytest.raises(ConfigError):
            derive_taxonomy(corpus, levels=0)
        with pytest.raises(ConfigError):
            derive_taxonomy(corpus, branching=1)
        tiny = Corpus([Document(id="a", sentences=("Hi.",))], "derived")
        with pytest.raises(DataError):
            derive_taxonomy(tiny, branching=2)
