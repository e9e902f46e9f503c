"""Corpus records and the line-delimited JSON loader.

One JSON object per line. `id` is required; each record carries either `text`
(split into sentences here) or a pre-split `sentences` list. Optional fields:
`category` (string), `hierarchy` (root-to-leaf label list), `concepts`
(string list). Domain modes add requirements: customer_support and scientific
need `category`, legal needs `concepts`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .records import read_jsonl, write_jsonl
from .text import split_sentences

log = logging.getLogger(__name__)

DOMAIN_MODES = ("customer_support", "scientific", "legal", "derived")


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[str, ...]
    category: str | None = None
    hierarchy_path: tuple[str, ...] | None = None
    concepts: frozenset[str] | None = None
    text: str | None = None


@dataclass
class Corpus:
    documents: list[Document]
    domain_mode: str
    _by_id: dict[str, Document] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.domain_mode not in DOMAIN_MODES:
            raise ValidationError(
                f"unknown domain mode {self.domain_mode!r}; valid: {DOMAIN_MODES}"
            )
        self._by_id = {d.id: d for d in self.documents}
        if len(self._by_id) != len(self.documents):
            raise ValidationError("duplicate document ids in corpus")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def get(self, doc_id: str) -> Document:
        doc = self._by_id.get(doc_id)
        if doc is None:
            raise ValidationError(f"unknown document id {doc_id!r}")
        return doc

    def has(self, doc_id: str) -> bool:
        return doc_id in self._by_id


_MODE_REQUIRED = {
    "customer_support": ("category",),
    "scientific": ("category",),
    "legal": ("concepts",),
    "derived": (),
}


def _parse_record(obj: dict) -> Document:
    if not isinstance(obj, dict):
        raise ParseError("record is not an object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ParseError("missing or non-string 'id'")
    text = obj.get("text")
    raw_sentences = obj.get("sentences")
    if raw_sentences is not None:
        if (not isinstance(raw_sentences, list)
                or not all(isinstance(s, str) and s.strip() for s in raw_sentences)):
            raise ParseError("'sentences' must be non-empty strings")
        sentences = tuple(s.strip() for s in raw_sentences)
    elif isinstance(text, str):
        sentences = tuple(split_sentences(text))
    else:
        raise ParseError("record needs 'text' or 'sentences'")
    if not sentences:
        raise ParseError("document has no sentences")

    category = obj.get("category")
    if category is not None and not isinstance(category, str):
        raise ParseError("'category' must be a string")
    hierarchy = obj.get("hierarchy")
    if hierarchy is not None:
        if not isinstance(hierarchy, list) or not all(isinstance(x, str) for x in hierarchy):
            raise ParseError("'hierarchy' must be a string list")
        hierarchy = tuple(hierarchy)
    concepts = obj.get("concepts")
    if concepts is not None:
        if not isinstance(concepts, list) or not all(isinstance(x, str) for x in concepts):
            raise ParseError("'concepts' must be a string list")
        concepts = frozenset(concepts)
    return Document(id=doc_id, sentences=sentences, category=category,
                    hierarchy_path=hierarchy, concepts=concepts,
                    text=text if isinstance(text, str) else None)


def load_corpus(path, domain_mode: str = "derived") -> Corpus:
    """Parse a JSONL corpus; all offending lines are reported together."""
    if domain_mode not in DOMAIN_MODES:
        raise ValidationError(
            f"unknown domain mode {domain_mode!r}; valid: {DOMAIN_MODES}"
        )
    seen_ids: dict[str, int] = {}

    def build(obj, line_no: int) -> Document:
        doc = _parse_record(obj)
        if doc.id in seen_ids:
            raise ParseError(f"duplicate id {doc.id!r} "
                             f"(first seen on line {seen_ids[doc.id]})")
        missing = [f for f in _MODE_REQUIRED[domain_mode]
                   if getattr(doc, f) is None]
        if missing:
            raise ParseError(f"mode {domain_mode!r} requires {missing}")
        seen_ids[doc.id] = line_no
        return doc

    documents = read_jsonl(path, build)
    if not documents:
        log.warning("corpus %s is empty", path)
    return Corpus(documents, domain_mode)


def save_corpus(corpus: Corpus, path) -> None:
    rows = []
    for doc in corpus:
        obj: dict = {"id": doc.id, "sentences": list(doc.sentences)}
        if doc.text is not None:
            obj["text"] = doc.text
        if doc.category is not None:
            obj["category"] = doc.category
        if doc.hierarchy_path is not None:
            obj["hierarchy"] = list(doc.hierarchy_path)
        if doc.concepts is not None:
            obj["concepts"] = sorted(doc.concepts)
        rows.append(obj)
    write_jsonl(path, rows)
