"""Splitting, tokenization, and hashing behavior."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctrain.errors import EmptyDocumentError
from doctrain.text import (
    CLS_ID,
    MASK_ID,
    NUM_RESERVED,
    SEP_ID,
    encode_tokens,
    hash_token,
    split_sentences,
    subword_ids,
    tokenize,
)


class TestSplitSentences:
    def test_basic_boundaries(self):
        got = split_sentences("The pump failed. We replaced it. Done now?")
        assert got == ["The pump failed.", "We replaced it.", "Done now?"]

    def test_lowercase_continuation_stays_joined(self):
        # no uppercase/digit after the period, so no split
        got = split_sentences("approx. three units shipped. New batch arrives.")
        assert got == ["approx. three units shipped.", "New batch arrives."]

    def test_digit_starts_a_sentence(self):
        assert split_sentences("It broke! 3 days later it worked.") == [
            "It broke!", "3 days later it worked."]

    def test_single_sentence_untouched(self):
        assert split_sentences("no terminal punctuation") == [
            "no terminal punctuation"]

    def test_empty_and_whitespace_raise(self):
        with pytest.raises(EmptyDocumentError):
            split_sentences("")
        with pytest.raises(EmptyDocumentError):
            split_sentences("   \n\t ")

    def test_never_returns_empty_strings(self):
        for s in split_sentences("One.  Two.   Three."):
            assert s.strip() == s and s


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The Pump FAILED\tagain\n") == [
            "the", "pump", "failed", "again"]

    def test_punctuation_stays_attached(self):
        assert tokenize("end. start") == ["end.", "start"]

    def test_empty_text_gives_no_tokens(self):
        assert tokenize("   ") == []


class TestHashing:
    def test_reserved_ids_are_distinct_and_low(self):
        assert (CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2)
        assert NUM_RESERVED == 3

    def test_matches_sha256_oracle(self):
        for token, vocab in [("pump", 8192), ("a", 100), ("schnittstelle", 50)]:
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            want = 3 + int.from_bytes(digest[:8], "little") % (vocab - 3)
            assert hash_token(token, vocab) == want

    def test_memoized_ids_match_a_fresh_sha256(self):
        words = tokenize("The pump failed again and the pump was replaced")
        pieces = words + [m[i:i + 3] for m in (f"<{w}>" for w in words)
                          for i in range(len(m) - 2)]
        for vocab in (512, 8192):
            subword_ids(" ".join(words), vocab)  # fills the memo
            for piece in pieces:
                digest = hashlib.sha256(piece.encode("utf-8")).digest()
                want = 3 + int.from_bytes(digest[:8], "little") % (vocab - 3)
                assert hash_token(piece, vocab) == want
        assert hash_token.cache_info().hits > 0

    def test_stable_across_calls(self):
        assert hash_token("pump", 8192) == hash_token("pump", 8192)

    def test_encode_tokens_maps_each(self):
        tokens = ["a", "b", "a"]
        ids = encode_tokens(tokens, 512)
        assert ids[0] == ids[2] != ids[1]

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=1, max_size=20), st.integers(4, 65536))
    def test_id_always_in_reserved_free_range(self, token, vocab):
        tid = hash_token(token, vocab)
        assert NUM_RESERVED <= tid < vocab


class TestSubwordIds:
    def test_word_plus_boundary_trigrams(self):
        # "<cat>" has trigrams <ca, cat, at>
        ids = subword_ids("cat", 4096)
        want = [hash_token("cat", 4096), hash_token("<ca", 4096),
                hash_token("cat", 4096), hash_token("at>", 4096)]
        assert ids == want

    def test_short_word_still_contributes(self):
        # "<a>" is exactly one trigram
        assert len(subword_ids("a", 4096)) == 2

    def test_casing_is_normalized_before_hashing(self):
        assert subword_ids("Cat", 4096) == subword_ids("cat", 4096)

    def test_multiple_words_concatenate(self):
        ids = subword_ids("a b", 4096)
        assert ids == subword_ids("a", 4096) + subword_ids("b", 4096)
