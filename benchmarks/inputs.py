"""Seeded input generation for the benchmark workloads.

Every file a workload feeds to doctrain is written here, into a directory of
the run, before any timing starts. The same seed writes the same bytes. The
workload settings (model shape, training settings) travel in `spec.json` next
to the data files, so the timed process reads nothing but this directory.

Sizes come in two scales: `full` is what the benchmark measures, `toy` only
keeps the smoke test fast.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

import numpy as np

MID_SHAPE = dict(d_model=128, num_layers=2, num_heads=4, ffn_dim=512,
                 vocab_size=8192, lower_layers=2)
TOY_SHAPE = dict(d_model=16, num_layers=1, num_heads=2, ffn_dim=32,
                 vocab_size=512, lower_layers=1)

SIZES = {
    "pretrain_sentences": {
        "full": dict(topics=3, docs_per_topic=12, dev_docs_per_topic=8,
                     sentences=12, words=8, pool=42, pool_share=0.25,
                     triplets=128, batch=16, epochs=3, lr=1e-3,
                     shape=MID_SHAPE),
        "toy": dict(topics=3, docs_per_topic=3, dev_docs_per_topic=1,
                    sentences=4, words=5, pool=4, pool_share=0.25,
                    triplets=8, batch=4, epochs=2, lr=1e-2, shape=TOY_SHAPE),
    },
    "finetune_tokens": {
        "full": dict(classes=3, train=64, dev=32, tokens=48, noise=0.1,
                     batch=8, epochs=4, lr=1e-3, shape=MID_SHAPE),
        "toy": dict(classes=3, train=16, dev=8, tokens=8, noise=0.1,
                    batch=4, epochs=3, lr=3e-2, shape=TOY_SHAPE),
    },
    "cli_walkthrough": {
        "full": dict(topics=3, docs_per_topic=20, sentences=24, words=8,
                     topic_vocab=12, mine_count=200, levels=2, branching=3,
                     pretrain_batch=32, pretrain_epochs=3, pretrain_lr=1e-3,
                     max_sentences=8, classes=3, tag_train=48, tag_dev=24,
                     tag_tokens=24, finetune_epochs=4, finetune_lr=1e-3,
                     shape=dict(d_model=32, num_layers=2, num_heads=4,
                                ffn_dim=64, vocab_size=2048, lower_layers=1)),
        "toy": dict(topics=3, docs_per_topic=3, sentences=4, words=6,
                    topic_vocab=6, mine_count=6, levels=1, branching=3,
                    pretrain_batch=4, pretrain_epochs=2, pretrain_lr=1e-2,
                    max_sentences=4, classes=3, tag_train=8, tag_dev=6,
                    tag_tokens=8, finetune_epochs=2, finetune_lr=1e-2,
                    shape=TOY_SHAPE),
    },
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _vocabulary(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    """n fresh pseudo-words of three consonant-vowel syllables. One length
    for all words keeps the featurizer's work per sentence independent of
    the seed."""
    words: list[str] = []
    while len(words) < n:
        w = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                    + _VOWELS[rng.integers(len(_VOWELS))] for _ in range(3))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _sentence(rng: np.random.Generator, sources, words: int) -> str:
    """A sentence of `words` words; each word comes from one of the
    (vocabulary, probability) sources."""
    vocabs = [v for v, _ in sources]
    probs = np.array([p for _, p in sources])
    picks = rng.choice(len(vocabs), size=words, p=probs / probs.sum())
    toks = [vocabs[i][rng.integers(len(vocabs[i]))] for i in picks]
    return " ".join(toks).capitalize() + "."


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _tagging(rng: np.random.Generator, groups: list[list[str]], count: int,
             tokens: int, noise: float) -> list[dict]:
    """Token classification rows: a token's label is the group its word comes
    from, flipped to another label with probability `noise`."""
    k = len(groups)
    rows = []
    for _ in range(count):
        labels = [int(v) for v in rng.integers(k, size=tokens)]
        toks = [groups[c][rng.integers(len(groups[c]))] for c in labels]
        for i in range(tokens):
            if rng.random() < noise:
                labels[i] = int((labels[i] + rng.integers(1, k)) % k)
        rows.append({"tokens": toks, "labels": labels})
    return rows


def _pretrain_inputs(out: Path, rng: np.random.Generator, s: dict,
                     seed: int) -> dict:
    taken: set[str] = set()
    common = _vocabulary(rng, 30, taken)
    n_docs = s["topics"] * (s["docs_per_topic"] + s["dev_docs_per_topic"])
    # every pool sentence fills the same number of slots, so the number of
    # distinct sentences (the featurizer's work) is the same for every seed
    pool_slots = round(s["pool_share"] * s["sentences"])
    pool = [_sentence(rng, [(common, 1.0)], s["words"])
            for _ in range(s["pool"])]
    draws = list(rng.permutation(
        np.resize(np.arange(s["pool"]), n_docs * pool_slots)))

    def document(doc_id: str, t: int, sub: int, topic_vocab, sub_vocab):
        sentences = [_sentence(rng, [(sub_vocab, 0.3), (topic_vocab, 0.5),
                                     (common, 0.2)], s["words"])
                     for _ in range(s["sentences"] - pool_slots)]
        for _ in range(pool_slots):
            sentences.insert(int(rng.integers(len(sentences) + 1)),
                             pool[draws.pop()])
        return {"id": doc_id, "sentences": sentences, "category": f"T{t}",
                "hierarchy": [f"T{t}", f"T{t}.S{sub}"]}

    train, dev, paths = [], [], []
    for t in range(s["topics"]):
        topic_vocab = _vocabulary(rng, 40, taken)
        subs = [_vocabulary(rng, 10, taken) for _ in range(2)]
        paths += [f"T{t} > T{t}.S{sub}" for sub in range(2)]
        for i in range(s["docs_per_topic"]):
            train.append(document(f"t{t}-d{i:02d}", t, i % 2, topic_vocab,
                                  subs[i % 2]))
        for i in range(s["dev_docs_per_topic"]):
            dev.append(document(f"t{t}-dev{i:02d}", t, i % 2, topic_vocab,
                                subs[i % 2]))
    by_topic: dict[str, list[str]] = {}
    for d in train:
        by_topic.setdefault(d["category"], []).append(d["id"])
    ids = [d["id"] for d in train]
    triplets = []
    for _ in range(s["triplets"]):
        a = ids[rng.integers(len(ids))]
        cat = a.split("-")[0].upper()
        same = [x for x in by_topic[cat] if x != a]
        other = [x for x in ids if not x.startswith(a.split("-")[0] + "-")]
        triplets.append({"anchor_id": a,
                         "positive_id": same[rng.integers(len(same))],
                         "negative_id": other[rng.integers(len(other))]})
    _write_jsonl(out / "corpus.jsonl", train)
    _write_jsonl(out / "dev_corpus.jsonl", dev)
    _write_jsonl(out / "triplets.jsonl", triplets)
    (out / "taxonomy.txt").write_text("\n".join(paths) + "\n",
                                      encoding="utf-8")
    model = dict(s["shape"], max_positions=64, max_sentences=64, seed=seed)
    return {"model": model, "train": dict(batch_size=s["batch"],
                                          epochs=s["epochs"],
                                          initial_lr=s["lr"], loss="both",
                                          seed=seed)}


def _finetune_inputs(out: Path, rng: np.random.Generator, s: dict,
                     seed: int) -> dict:
    from doctrain.checkpoint import save_checkpoint
    from doctrain.model import DocumentModel, ModelConfig

    taken: set[str] = set()
    groups = [_vocabulary(rng, 40, taken) for _ in range(s["classes"])]
    _write_jsonl(out / "train.jsonl",
                 _tagging(rng, groups, s["train"], s["tokens"], s["noise"]))
    _write_jsonl(out / "dev.jsonl",
                 _tagging(rng, groups, s["dev"], s["tokens"], s["noise"]))
    shape = dict(s["shape"], max_positions=64, max_sentences=64,
                 level_sizes=(3, 6), seed=seed)
    model = DocumentModel(ModelConfig(**shape))
    save_checkpoint(model.to_checkpoint(extra_meta={"objective": "seeded"}),
                    out / "seeded.ckpt")
    return {"num_classes": s["classes"],
            "finetune": dict(lr=s["lr"], epochs=s["epochs"],
                             batch_size=s["batch"], patience=s["epochs"],
                             seed=seed)}


def _cli_inputs(out: Path, rng: np.random.Generator, s: dict,
                seed: int) -> dict:
    taken: set[str] = set()
    docs = []
    for t in range(s["topics"]):
        vocab = _vocabulary(rng, s["topic_vocab"], taken)
        for i in range(s["docs_per_topic"]):
            docs.append({"id": f"doc-{t}-{i:02d}", "sentences": [
                _sentence(rng, [(vocab, 1.0)], s["words"])
                for _ in range(s["sentences"])]})
    order = rng.permutation(len(docs))
    _write_jsonl(out / "corpus.jsonl", [docs[i] for i in order])
    groups = [_vocabulary(rng, 30, taken) for _ in range(s["classes"])]
    _write_jsonl(out / "tag_train.jsonl",
                 _tagging(rng, groups, s["tag_train"], s["tag_tokens"], 0.1))
    _write_jsonl(out / "tag_dev.jsonl",
                 _tagging(rng, groups, s["tag_dev"], s["tag_tokens"], 0.1))
    return {"settings": {k: v for k, v in s.items() if k != "shape"},
            "shape": s["shape"], "seed": seed}


_GENERATORS = {
    "pretrain_sentences": _pretrain_inputs,
    "finetune_tokens": _finetune_inputs,
    "cli_walkthrough": _cli_inputs,
}


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write the workload's inputs into `out` and return its spec."""
    out.mkdir(parents=True, exist_ok=True)
    stream = zlib.crc32(workload.encode())  # one stream per workload
    rng = np.random.Generator(np.random.PCG64([seed, stream]))
    spec = _GENERATORS[workload](out, rng, SIZES[workload][size], seed)
    spec.update(workload=workload, seed=seed, size=size,
                environment=environment())
    (out / "spec.json").write_text(json.dumps(spec, indent=2, sort_keys=True)
                                   + "\n", encoding="utf-8")
    return spec


def environment() -> dict:
    """Library versions the run measured with."""
    import platform

    info = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


if __name__ == "__main__":
    # usage: inputs.py <workload> <seed> <size> <out-dir>
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4]))
