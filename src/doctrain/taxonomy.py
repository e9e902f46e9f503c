"""Taxonomies: file IO, label padding, category mapping, and derivation.

A taxonomy file holds one root-to-leaf path per line, levels separated by
" > ". Each level has its own label vocabulary plus a null class at the last
index, so shallow documents pad out with nulls.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import ConfigError, DataError, ParseError, UnmappableCategory, ValidationError
from .seeding import make_rng
from .text import tokenize

log = logging.getLogger(__name__)

_SEPARATOR = " > "


@dataclass(frozen=True)
class Taxonomy:
    levels: tuple[dict[str, int], ...]
    paths: tuple[tuple[str, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def num_classes(self, level: int) -> int:
        """Class count including the null class."""
        return len(self.levels[level]) + 1

    def null_index(self, level: int) -> int:
        return len(self.levels[level])

    @property
    def level_sizes(self) -> tuple[int, ...]:
        """Per-level label counts, null excluded (head width is size + 1)."""
        return tuple(len(lv) for lv in self.levels)

    @classmethod
    def from_paths(cls, paths) -> "Taxonomy":
        norm = sorted({tuple(p) for p in paths})
        if not norm:
            raise ValidationError("taxonomy needs at least one path")
        if any(len(p) == 0 for p in norm):
            raise ValidationError("taxonomy paths must be non-empty")
        depth = max(len(p) for p in norm)
        levels: list[dict[str, int]] = []
        for lv in range(depth):
            labels = sorted({p[lv] for p in norm if len(p) > lv})
            levels.append({label: i for i, label in enumerate(labels)})
        return cls(tuple(levels), tuple(norm))

    @classmethod
    def load(cls, path) -> "Taxonomy":
        paths = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = tuple(part.strip() for part in line.split(_SEPARATOR))
                if any(not part for part in parts):
                    raise ParseError(f"line {line_no}: empty label in path")
                paths.append(parts)
        if not paths:
            raise ParseError(f"taxonomy file {path} has no paths")
        return cls.from_paths(paths)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for p in self.paths:
                fh.write(_SEPARATOR.join(p) + "\n")


@dataclass(frozen=True)
class HierarchyLabels:
    """Per-level class indices for one document, null-padded to full depth."""

    indices: tuple[int, ...]


def pad_hierarchy(path, taxonomy: Taxonomy) -> HierarchyLabels:
    """A (possibly empty) path prefix -> full-depth indices, nulls after it."""
    path = tuple(path)
    if len(path) > taxonomy.depth:
        raise ValidationError(
            f"path of length {len(path)} exceeds taxonomy depth {taxonomy.depth}"
        )
    indices = []
    for lv in range(taxonomy.depth):
        if lv < len(path):
            idx = taxonomy.levels[lv].get(path[lv])
            if idx is None:
                raise ValidationError(
                    f"label {path[lv]!r} not present at taxonomy level {lv}"
                )
            indices.append(idx)
        else:
            indices.append(taxonomy.null_index(lv))
    return HierarchyLabels(tuple(indices))


class WordVectors:
    """Static word embeddings from a 'token v1 .. vd' text file."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        self.vectors = vectors
        self.dim = dim

    @classmethod
    def load(cls, path) -> "WordVectors":
        vectors: dict[str, np.ndarray] = {}
        dim = None
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) < 2:
                    raise ParseError(f"line {line_no}: token without values")
                token, values = parts[0], parts[1:]
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise ParseError(
                        f"line {line_no}: expected {dim} values, got {len(values)}"
                    )
                try:
                    vectors[token.lower()] = np.array([float(v) for v in values])
                except ValueError as exc:
                    raise ParseError(f"line {line_no}: non-numeric value") from exc
        if not vectors:
            raise ParseError(f"word-vector file {path} is empty")
        return cls(vectors, dim)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.vectors

    def get(self, token: str) -> np.ndarray:
        """Vector for a token; out-of-vocabulary tokens map to zero vectors."""
        vec = self.vectors.get(token.lower())
        return vec if vec is not None else np.zeros(self.dim)

    def mean_vector(self, tokens) -> np.ndarray:
        toks = list(tokens)
        if not toks:
            return np.zeros(self.dim)
        return np.mean([self.get(t) for t in toks], axis=0)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def map_category_to_hierarchy(category: str, taxonomy: Taxonomy,
                              word_vectors: WordVectors) -> tuple[str, ...]:
    """Category string -> best taxonomy path.

    An exact case-folded leaf match wins outright. Otherwise the score is the
    cosine between the category's mean word vector and the mean word vector of
    the path's last two labels; ties break by lexicographic path order (the
    stored path order).
    """
    if not category or not category.strip():
        raise UnmappableCategory("empty category string")
    folded = category.strip().casefold()
    for path in taxonomy.paths:
        if path[-1].casefold() == folded:
            return path
    cat_tokens = tokenize(category)
    if not any(t in word_vectors for t in cat_tokens):
        raise UnmappableCategory(
            f"category {category!r} has no exact leaf match and no "
            f"in-vocabulary token"
        )
    cat_vec = word_vectors.mean_vector(cat_tokens)
    best_path, best_score = None, -np.inf
    for path in taxonomy.paths:
        tail = path[-2:]
        tail_tokens = [t for label in tail for t in tokenize(label)]
        score = _cosine(cat_vec, word_vectors.mean_vector(tail_tokens))
        if score > best_score:
            best_path, best_score = path, score
    return best_path


# -- derivation from a bare corpus ------------------------------------------


def _tfidf_matrix(token_lists: list[list[str]]) -> tuple[np.ndarray, list[str]]:
    vocab = sorted({t for toks in token_lists for t in toks if ">" not in t})
    index = {t: i for i, t in enumerate(vocab)}
    n, v = len(token_lists), len(vocab)
    tf = np.zeros((n, v))
    for row, toks in enumerate(token_lists):
        for t in toks:
            col = index.get(t)
            if col is not None:
                tf[row, col] += 1.0
        if toks:
            tf[row] /= len(toks)
    df = (tf > 0).sum(axis=0)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    x = tf * idf
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    np.divide(x, norms, out=x, where=norms > 0)
    return x, vocab


# Lloyd iterations per split, a fixed count so a seed fixes the taxonomy
_KMEANS_ITERS = 25


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_ITERS):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(k):
            members = x[assign == j]
            if len(members) == 0:
                # revive an empty cluster with the point farthest from its center
                far = d2[np.arange(n), assign].argmax()
                centers[j] = x[far]
                assign[far] = j
            else:
                centers[j] = members.mean(axis=0)
    return assign


def derive_taxonomy(corpus: Corpus, levels: int = 3, branching: int = 2,
                    seed: int = 0) -> tuple[Taxonomy, dict[str, tuple[str, ...]]]:
    """Build a taxonomy by seeded divisive k-means over tf-idf vectors.

    Nodes stop splitting when they run out of levels or hold fewer documents
    than `branching`; each node's label is its top-3 tf-idf terms. Returns the
    taxonomy plus every document's assigned path (depth <= `levels`).
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    if branching < 2:
        raise ConfigError(f"branching must be >= 2, got {branching}")
    docs = list(corpus)
    if len(docs) < branching:
        raise DataError(
            f"corpus of {len(docs)} documents cannot split {branching} ways"
        )
    token_lists = [tokenize(" ".join(d.sentences)) for d in docs]
    x, vocab = _tfidf_matrix(token_lists)
    rng = make_rng(seed, "derive-taxonomy")
    used_labels: dict[int, set[str]] = {}

    def label_for(members: np.ndarray, depth: int) -> str:
        weights = x[members].mean(axis=0)
        order = sorted(range(len(vocab)), key=lambda i: (-weights[i], vocab[i]))
        terms = [vocab[i] for i in order[:3] if weights[i] > 0]
        base = " ".join(terms) if terms else "misc"
        used = used_labels.setdefault(depth, set())
        label, n = base, 1
        while label in used:
            n += 1
            label = f"{base} ~{n}"
        used.add(label)
        return label

    doc_paths: dict[str, tuple[str, ...]] = {}
    leaf_paths: list[tuple[str, ...]] = []
    # (member indices, path so far); split breadth-first for determinism
    queue: list[tuple[np.ndarray, tuple[str, ...]]] = [
        (np.arange(len(docs)), ())
    ]
    while queue:
        members, prefix = queue.pop(0)
        depth = len(prefix)
        if depth >= levels or len(members) < branching:
            leaf_paths.append(prefix)
            for m in members:
                doc_paths[docs[m].id] = prefix
            continue
        assign = _kmeans(x[members], branching, rng)
        for j in range(branching):
            child = members[assign == j]
            if len(child) == 0:
                continue
            queue.append((child, prefix + (label_for(child, depth),)))

    # the size check above guarantees the root splits, so every leaf path is
    # non-empty here
    taxonomy = Taxonomy.from_paths(leaf_paths)
    return taxonomy, doc_paths
