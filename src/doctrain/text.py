"""Sentence splitting, whitespace tokenization, and stable token hashing.

Token ids must be identical across processes and platforms, so hashing goes
through sha256 rather than the salted builtin `hash`.
"""

from __future__ import annotations

import functools
import hashlib
import re

from .errors import EmptyDocumentError

# reserved ids at the bottom of every vocabulary
CLS_ID = 0
SEP_ID = 1
MASK_ID = 2
NUM_RESERVED = 3

# split after . ? or ! when whitespace and then an uppercase letter or a digit
# follow; everything else (abbreviations, terminal punctuation) stays joined
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.?!])\s+(?=[A-Z0-9])")

_WS = re.compile(r"\s+")


def split_sentences(text: str) -> list[str]:
    """Deterministic rule-based sentence splitting; never returns empties."""
    if text is None or not text.strip():
        raise EmptyDocumentError("document text is empty or whitespace-only")
    parts = [p.strip() for p in _SENTENCE_BOUNDARY.split(text)]
    return [p for p in parts if p]


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokens."""
    return [t for t in _WS.split(text.lower()) if t]


@functools.lru_cache(maxsize=1 << 16)  # a corpus reuses few words and trigrams
def hash_token(token: str, vocab_size: int) -> int:
    """Stable token id in [NUM_RESERVED, vocab_size)."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return NUM_RESERVED + int.from_bytes(digest[:8], "little") % (vocab_size - NUM_RESERVED)


def encode_tokens(tokens: list[str], vocab_size: int) -> list[int]:
    return [hash_token(t, vocab_size) for t in tokens]


def subword_ids(sentence: str, vocab_size: int) -> list[int]:
    """Sub-word piece ids for the frozen featurizer: each word contributes its
    own id plus boundary-marked character trigram ids."""
    ids: list[int] = []
    for word in tokenize(sentence):
        ids.append(hash_token(word, vocab_size))
        marked = f"<{word}>"
        for i in range(len(marked) - 2):
            ids.append(hash_token(marked[i : i + 3], vocab_size))
    return ids
