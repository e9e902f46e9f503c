"""Embedding-space correspondence analyses: positional word-alignment score,
sentence-path vs token-path correlation, principal-component projection, and
paragraph-level lexical similarity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import map_equal_length
from .errors import ConfigError, ContractError, ValidationError
from .model import DocumentModel
from .seeding import make_rng
from .taxonomy import _tfidf_matrix
from .tensor import no_grad
from .text import encode_tokens, tokenize

EMBEDDING_MODES = ("sentence", "token")


def _token_ids(model: DocumentModel, docs: list[list[str]]) -> list[list[int]]:
    """Each document's token ids, truncated to the model's positions; one
    warning line says how many documents were cut."""
    out = []
    for sentences in docs:
        tokens = tokenize(" ".join(sentences))
        if not tokens:
            raise ContractError("document has no tokens")
        out.append(encode_tokens(tokens, model.config.vocab_size))
    return model.fit_positions(out, "documents")


def _token_inputs(model: DocumentModel, docs: list[list[str]]) -> list[np.ndarray]:
    with no_grad():
        return [model.embed.batch_rows([ids]).data[0]
                for ids in _token_ids(model, docs)]


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 whatever the model's dtype: reports compare close cosines
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    an = np.linalg.norm(a, axis=1, keepdims=True)
    bn = np.linalg.norm(b, axis=1, keepdims=True)
    an = np.where(an == 0, 1.0, an)
    bn = np.where(bn == 0, 1.0, bn)
    return (a / an) @ (b / bn).T


def wl_metric(model: DocumentModel, doc_a: list[str], doc_b: list[str],
              embedding_mode: str = "sentence") -> float:
    """Positional distance between best-matching input embeddings.

    For each input position i of doc_a, j(i) is the doc_b position whose
    input embedding is most cosine-similar (ties: smallest |i - j|, then
    smallest j). Returns 1 + mean_i |i - j(i)|, so identical documents with
    pairwise-distinct embeddings score exactly 1.
    """
    if embedding_mode not in EMBEDDING_MODES:
        raise ConfigError(f"embedding_mode must be one of {EMBEDDING_MODES}")
    if not doc_a or not doc_b:
        raise ContractError("wl_metric needs two non-empty documents")
    if embedding_mode == "sentence":
        a, b = model.sentence_matrices([doc_a, doc_b])
    else:
        a, b = _token_inputs(model, [doc_a, doc_b])
    sims = _cosine_rows(a, b)
    total = 0.0
    for i in range(a.shape[0]):
        row = sims[i]
        best = row.max()
        ties = np.flatnonzero(row == best)
        j = min(ties, key=lambda jj: (abs(i - jj), jj))
        total += abs(i - int(j))
    return 1.0 + total / a.shape[0]


@dataclass(frozen=True)
class CorrelationReport:
    pearson_r: float | None
    num_pairs: int
    degenerate: bool  # a similarity vector had zero spread

    def __post_init__(self):
        if self.pearson_r is not None and not -1.0 <= self.pearson_r <= 1.000001:
            raise ContractError(f"correlation {self.pearson_r} outside [-1, 1]")


def _doc_vectors(model: DocumentModel, docs: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    seqs = _token_ids(model, docs)
    # documents of equal token count run together (`map_equal_length`): a
    # corpus-wide padded batch would hold one [docs, heads, T, T] attention
    # probability array per layer, and padding would move the bits
    tok_vecs = map_equal_length(
        [len(q) for q in seqs],
        lambda chunk: [rows.mean(axis=0) for rows in model.encode_token_batch(
            [seqs[i] for i in chunk]).data])
    return (model.encode_documents(docs),
            np.array(tok_vecs, model.dtype).reshape(-1, model.config.d_model))


def _pairwise_cosines(vecs: np.ndarray) -> np.ndarray:
    """Cosine of every pair i < j, in `itertools.combinations` order."""
    return _cosine_rows(vecs, vecs)[np.triu_indices(vecs.shape[0], 1)]


def representation_correlation(model: DocumentModel,
                               docs: list[list[str]]) -> CorrelationReport:
    """Pearson r between pairwise doc similarities under the two input paths.

    Doc vectors come from the sentence and token embedding paths; their C(n,2)
    cosine vectors are correlated as they are (r ignores positive affine maps).
    """
    if len(docs) < 3:
        raise ValidationError(f"need at least 3 documents, got {len(docs)}")
    sent_vecs, tok_vecs = _doc_vectors(model, docs)
    a, b = _pairwise_cosines(sent_vecs), _pairwise_cosines(tok_vecs)
    num_pairs = len(a)
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        return CorrelationReport(None, num_pairs, True)
    r = float(np.corrcoef(a, b)[0, 1])
    if not np.isfinite(r):
        return CorrelationReport(None, num_pairs, True)
    return CorrelationReport(min(max(r, -1.0), 1.0), num_pairs, False)


@dataclass(frozen=True)
class PcaResult:
    coordinates: np.ndarray         # [n, k]
    components: np.ndarray          # [k, d], unit rows
    explained_variance: np.ndarray  # [k] fractions of total variance


def pca_project(vectors: np.ndarray, k: int = 2, seed: int = 0) -> PcaResult:
    """Top-k principal components via seeded power iteration with deflation."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"expected [n, d] matrix, got shape {x.shape}")
    n, d = x.shape
    if k < 1 or k > d:
        raise ConfigError(f"k must sit in [1, {d}], got {k}")
    if n < k:
        raise ValidationError(f"need at least {k} vectors, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / max(n - 1, 1)
    total = float(np.trace(cov))
    rng = make_rng(seed, "pca")
    comps = np.zeros((k, d))
    ev = np.zeros(k)
    work = cov.copy()
    for c in range(k):
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        for _ in range(500):
            nxt = work @ v
            norm = np.linalg.norm(nxt)
            if norm < 1e-15:
                break  # no variance left in this direction
            nxt /= norm
            if np.abs(nxt @ v) > 1.0 - 1e-13:
                v = nxt
                break
            v = nxt
        lam = float(v @ work @ v)
        # deterministic sign: largest-magnitude coordinate made positive
        pivot = int(np.abs(v).argmax())
        if v[pivot] < 0:
            v = -v
        comps[c] = v
        ev[c] = max(lam, 0.0)
        work = work - lam * np.outer(v, v)
    fractions = ev / total if total > 0 else np.zeros(k)
    return PcaResult(centered @ comps.T, comps, fractions)


@dataclass(frozen=True)
class ParagraphSimilarityReport:
    scores_a: np.ndarray      # per paragraph of doc_a: max cosine vs doc_b
    scores_b: np.ndarray
    bin_edges: np.ndarray     # 11 edges over [0, 1]
    histogram: np.ndarray     # counts over both score lists


def split_paragraphs(text: str) -> list[str]:
    paras = [p.strip() for p in text.split("\n\n")]
    return [p for p in paras if p]


def paragraph_similarity(doc_a: str, doc_b: str) -> ParagraphSimilarityReport:
    """Max lexical similarity of each paragraph against the other document.

    Paragraphs are blank-line delimited and embedded as tf-idf vectors fit
    over both documents' paragraphs together; similarity is cosine.
    """
    paras_a = split_paragraphs(doc_a)
    paras_b = split_paragraphs(doc_b)
    if not paras_a or not paras_b:
        raise ContractError("each document needs at least one paragraph")
    tokens = [tokenize(p) for p in paras_a + paras_b]
    matrix, _ = _tfidf_matrix(tokens)
    rows_a = matrix[:len(paras_a)]
    rows_b = matrix[len(paras_a):]
    sims = rows_a @ rows_b.T  # rows are unit (or zero) vectors already
    scores_a = sims.max(axis=1)
    scores_b = sims.max(axis=0)
    both = np.concatenate([scores_a, scores_b])
    edges = np.linspace(0.0, 1.0, 11)
    hist, _ = np.histogram(np.clip(both, 0.0, 1.0), bins=edges)
    return ParagraphSimilarityReport(scores_a, scores_b, edges, hist)
