"""Triplet mining from document metadata or from ROUGE-L similarity."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .corpus import Corpus
from .errors import ConfigError, DataError, MiningExhausted, NoNegativeAvailable
from .records import read_jsonl, write_jsonl
from .rouge import rouge_from_lcs, rouge_l
from .seeding import make_rng
from .text import tokenize


@dataclass(frozen=True)
class Triplet:
    anchor_id: str
    positive_id: str
    negative_id: str


def save_triplets(triplets: list[Triplet], path) -> None:
    write_jsonl(path, [asdict(t) for t in triplets])


def load_triplets(path) -> list[Triplet]:
    return read_jsonl(path, lambda obj, _: Triplet(
        obj["anchor_id"], obj["positive_id"], obj["negative_id"]))


def _validate_count(count: int) -> None:
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")


def mine_triplets_metadata(corpus: Corpus, count: int, seed: int = 0) -> list[Triplet]:
    """Sample triplets constrained by the corpus domain's metadata relation.

    customer_support / scientific: anchor and positive share `category`, the
    negative's category differs. legal: anchor and positive share at least one
    concept; the negative shares none with either (so the swapped copy also
    satisfies the constraint). scientific and legal append the swapped copy of
    each triplet, doubling the output; customer_support does not.
    """
    _validate_count(count)
    mode = corpus.domain_mode
    if mode == "derived":
        raise ConfigError("metadata mining is undefined for derived corpora; "
                          "use the rouge strategy")
    if len(corpus) < 3:
        raise DataError(f"need at least 3 documents, corpus has {len(corpus)}")
    doubled = mode in ("scientific", "legal")
    rng = make_rng(seed, f"mine-metadata-{mode}")
    ids = sorted(d.id for d in corpus)

    if mode in ("customer_support", "scientific"):
        by_cat: dict[str, list[str]] = {}
        for doc_id in ids:
            by_cat.setdefault(corpus.get(doc_id).category, []).append(doc_id)
        positives = {
            doc_id: [x for x in by_cat[corpus.get(doc_id).category] if x != doc_id]
            for doc_id in ids
        }
        negatives = {
            doc_id: [x for x in ids
                     if corpus.get(x).category != corpus.get(doc_id).category]
            for doc_id in ids
        }
        eligible = [d for d in ids if positives[d] and negatives[d]]
        if not eligible:
            if len(by_cat) == 1:
                only = next(iter(by_cat))
                raise NoNegativeAvailable(
                    f"every document shares category {only!r}; no negative exists"
                )
            raise DataError("no category holds two documents; no positive pairs")
        out: list[Triplet] = []
        for _ in range(count):
            a = eligible[rng.integers(len(eligible))]
            p = positives[a][rng.integers(len(positives[a]))]
            n = negatives[a][rng.integers(len(negatives[a]))]
            out.append(Triplet(a, p, n))
            if doubled:
                out.append(Triplet(p, a, n))
        return out

    # legal: concept-overlap relation (not transitive, so negatives are
    # checked against the union of anchor and positive concepts)
    concepts = {doc_id: corpus.get(doc_id).concepts or frozenset()
                for doc_id in ids}
    positives = {
        a: [b for b in ids if b != a and concepts[a] & concepts[b]]
        for a in ids
    }
    anchors = [a for a in ids if positives[a]]
    if not anchors:
        raise DataError("no two documents share a concept; no positive pairs")
    has_any_negative = False
    for a in anchors:
        if any(not (concepts[x] & concepts[a]) for x in ids if x != a):
            has_any_negative = True
            break
    if not has_any_negative:
        sample = sorted(concepts[anchors[0]])
        raise NoNegativeAvailable(
            f"every document overlaps the concept set {sample}; "
            f"no negative exists"
        )
    out = []
    attempts, budget = 0, max(1000, 100 * count)
    last_union: frozenset[str] = frozenset()
    while len(out) < (2 * count if doubled else count):
        if attempts >= budget:
            raise NoNegativeAvailable(
                f"no negative disjoint from concept set {sorted(last_union)} "
                f"after {attempts} attempts"
            )
        attempts += 1
        a = anchors[rng.integers(len(anchors))]
        p = positives[a][rng.integers(len(positives[a]))]
        union = concepts[a] | concepts[p]
        last_union = union
        negs = [x for x in ids if x not in (a, p) and not (concepts[x] & union)]
        if not negs:
            continue
        n = negs[rng.integers(len(negs))]
        out.append(Triplet(a, p, n))
        out.append(Triplet(p, a, n))
    return out


def mine_triplets_rouge(corpus: Corpus, count: int, seed: int = 0,
                        pos_threshold: float = 0.35,
                        neg_threshold: float = 0.10,
                        truncate_tokens: int = 512) -> list[Triplet]:
    """Threshold mining on pairwise ROUGE-L F1 over truncated token streams.

    positive: f1(anchor, candidate) >= pos_threshold; negative: f1 <=
    neg_threshold. Sampling is seed-deterministic; scores are cached per pair.
    The multiset token overlap bounds the LCS from above, so a pair whose
    overlap F1 already settles a test never needs its LCS.
    """
    _validate_count(count)
    if not 0.0 <= neg_threshold <= pos_threshold <= 1.0:
        raise ConfigError(
            f"thresholds must satisfy 0 <= neg <= pos <= 1, got "
            f"neg={neg_threshold} pos={pos_threshold}"
        )
    if truncate_tokens < 1:
        raise ConfigError(f"truncate_tokens must be >= 1, got {truncate_tokens}")
    if len(corpus) < 3:
        raise DataError(f"need at least 3 documents, corpus has {len(corpus)}")
    ids = sorted(d.id for d in corpus)
    tokens = {
        doc_id: tokenize(" ".join(corpus.get(doc_id).sentences))[:truncate_tokens]
        for doc_id in ids
    }
    counts = {doc_id: Counter(tokens[doc_id]) for doc_id in ids}
    cache: dict[tuple[str, str, bool], float] = {}

    def f1(a: str, b: str, bound: bool = False) -> float:
        key = (a, b, bound) if a <= b else (b, a, bound)
        hit = cache.get(key)
        if hit is None:
            x, y = tokens[key[0]], tokens[key[1]]
            if bound:
                overlap = sum((counts[key[0]] & counts[key[1]]).values())
                hit = rouge_from_lcs(overlap, len(x), len(y)).f1
            else:
                hit = rouge_l(x, y).f1
            cache[key] = hit
        return hit

    rng = make_rng(seed, "mine-rouge")
    out: list[Triplet] = []
    attempts, budget = 0, max(1000, 200 * count)
    while len(out) < count:
        if attempts >= budget:
            raise MiningExhausted(
                f"mined {len(out)}/{count} triplets in {attempts} attempts "
                f"(pos>={pos_threshold}, neg<={neg_threshold}); relax the "
                f"thresholds or provide more similar documents"
            )
        attempts += 1
        a = ids[rng.integers(len(ids))]
        p = ids[rng.integers(len(ids))]
        n = ids[rng.integers(len(ids))]
        if len({a, p, n}) != 3:
            continue
        if (f1(a, p, bound=True) >= pos_threshold
                and f1(a, p) >= pos_threshold
                and (f1(a, n, bound=True) <= neg_threshold
                     or f1(a, n) <= neg_threshold)):
            out.append(Triplet(a, p, n))
    return out
