import hashlib
import math
import struct

import numpy as np
import pytest

from doctrain.checkpoint import FORMAT_VERSION, MAGIC
from doctrain.corpus import Corpus, Document
from doctrain.encoder import ModelConfig
from doctrain.mining import Triplet

# themed vocabularies with no shared words, so documents cluster lexically
CATEGORY_WORDS = {
    "astro": ("stellar quasar nebula galaxy cosmic orbit photon comet "
              "pulsar eclipse").split(),
    "law": ("contract clause tort statute liability plaintiff verdict "
            "appeal damages motion").split(),
    "bio": ("enzyme protein membrane mitosis ribosome chromosome neuron "
            "antibody genome lipid").split(),
}


def small_config(**overrides) -> ModelConfig:
    base = dict(d_model=16, num_layers=1, num_heads=2, ffn_dim=32,
                vocab_size=512, max_positions=64, max_sentences=8,
                lower_layers=1, level_sizes=(), seed=7)
    base.update(overrides)
    return ModelConfig(**base)


def as_float64(model):
    """Cast every parameter of `model` to float64 in place, the frozen
    featurizer and an attached adapter included, and return the model.

    Models compute in float32; contract tests call this to check gradients
    and batch equivalence at float64 precision. The featurizer's cache is
    emptied so no float32 vector outlives the cast.
    """
    tensors = [*model.lower.named_params().values(),
               *model.named_params().values()]
    if model.adapter is not None:
        tensors += model.adapter.trainable_tensors()
    for t in tensors:
        t.data = t.data.astype(np.float64)
    model.lower._cache.clear()
    return model


def make_document(doc_id: str, category: str, rng: np.random.Generator,
                  num_sentences: int = 3, words_per: int = 5,
                  hierarchy=(), concepts=()) -> Document:
    words = CATEGORY_WORDS[category]
    sentences = tuple(
        " ".join(rng.choice(words, size=words_per)).capitalize() + "."
        for _ in range(num_sentences))
    return Document(id=doc_id, sentences=sentences, category=category,
                    hierarchy_path=tuple(hierarchy),
                    concepts=frozenset(concepts), text=None)


def separable_corpus(per_category: int = 6, categories=("astro", "law"),
                     seed: int = 0, mode: str = "customer_support") -> Corpus:
    rng = np.random.default_rng(seed)
    docs = []
    for cat in categories:
        for i in range(per_category):
            docs.append(make_document(f"{cat}{i}", cat, rng,
                                      hierarchy=(cat,)))
    return Corpus(documents=docs, domain_mode=mode)


def triplets_for(corpus: Corpus, count: int, seed: int = 0) -> list[Triplet]:
    """Valid customer-support style triplets drawn directly from categories."""
    rng = np.random.default_rng(seed)
    by_cat: dict[str, list[Document]] = {}
    for d in corpus:
        by_cat.setdefault(d.category, []).append(d)
    cats = sorted(by_cat)
    out = []
    for _ in range(count):
        cat = cats[int(rng.integers(0, len(cats)))]
        others = [c for c in cats if c != cat]
        pool = by_cat[cat]
        a, p = rng.choice(len(pool), size=2, replace=False)
        neg_pool = by_cat[others[int(rng.integers(0, len(others)))]]
        n = int(rng.integers(0, len(neg_pool)))
        out.append(Triplet(pool[a].id, pool[p].id, neg_pool[n].id))
    return out


def raw_checkpoint(meta_blob: bytes, names: list[bytes], shape=(),
                   payload: bytes | None = None) -> bytes:
    """A checkpoint file with one tensor of `shape` per name, in the order
    given, and a valid digest, so only the structure rules can reject it.
    The payloads are zeros unless `payload` gives their bytes."""
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(meta_blob)),
             meta_blob, struct.pack("<I", len(names))]
    for name in names:
        parts += [struct.pack("<H", len(name)), name,
                  struct.pack(f"<B{len(shape)}I", len(shape), *shape)]
    if payload is None:
        payload = bytes(4 * len(names) * math.prod(shape))
    body = b"".join(parts) + payload
    return body + hashlib.sha256(body).digest()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
