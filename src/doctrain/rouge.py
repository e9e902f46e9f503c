"""ROUGE-L similarity via a bit-parallel longest common subsequence."""

from __future__ import annotations

import logging
from dataclasses import dataclass

log = logging.getLogger(__name__)


def lcs_length(a: list, b: list) -> int:
    """Length of the longest common subsequence, bit-parallel.

    The recurrence of Allison & Dix (1986) in Hyyrö's (2004) form: one
    Python-int mask per distinct token of `b`, and one row of the dynamic
    program per token of `a` as a few word-parallel operations on `v`, whose
    zero bits mark where the row's LCS grows.
    """
    if not a or not b:
        return 0
    masks: dict = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def rouge_from_lcs(lcs: int, len_a: int, len_b: int) -> RougeScore:
    """ROUGE-L of sequences of lengths `len_a` and `len_b` sharing an LCS of
    length `lcs`: precision = lcs/len_b, recall = lcs/len_a, f1 their
    harmonic mean (0 when lcs is 0). f1 strictly increases with lcs."""
    if lcs == 0:
        return RougeScore(0.0, 0.0, 0.0)
    p = lcs / len_b
    r = lcs / len_a
    return RougeScore(p, r, 2.0 * p * r / (p + r))


def rouge_l(a_tokens: list[str], b_tokens: list[str]) -> RougeScore:
    """ROUGE-L of two token sequences; an empty side scores all zeros and
    records a warning."""
    if not a_tokens or not b_tokens:
        log.warning("rouge_l called with an empty token sequence")
        return RougeScore(0.0, 0.0, 0.0)
    return rouge_from_lcs(lcs_length(a_tokens, b_tokens), len(a_tokens),
                          len(b_tokens))
