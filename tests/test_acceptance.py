"""Acceptance gate: eleven property-based criteria, one test per criterion.

Each test prints one ``ACCEPTANCE Cnn PASS`` line (visible with ``pytest -s``;
under plain ``pytest -v`` the per-test PASSED/FAILED line serves the same
purpose). Thresholds are part of the contract and must not be loosened:

  C1  gradcheck max relative error < 1e-4, runtime < 60 s
  C2  loss oracles within 1e-6 on 100 random cases each, exact anchors
  C3  frozen featurizer bytes and drift exactly unchanged by pre-training
  C4  miner soundness over 1,000 random corpora with exact emission counts
  C5  desk-scale separation: loss down, cosine gap >= 0.1, held-out
      hierarchy accuracy > 1.5x chance, < 10 min
  C6  document-pretrained init >= random init, mean dev macro-F1, 5 seeds
  C7  sentence/token correspondence r > 0; 20 documents -> 190 pairs
  C8  per-group drift: document objective < masked-token objective for a
      majority of trainable groups at an equal step budget
  C9  ROUGE DP equals the exhaustive subsequence oracle, all length <= 6
      sequences over a 3-token alphabet
  C10 one manifest -> byte-identical checkpoints and metric reports
  C11 LoRA rank-0/fresh adapters are bit-exact no-ops; 2*r*d params each
"""

import itertools
import json
import time

import numpy as np
import pytest

import doctrain.tensor as T
from doctrain.analysis import representation_correlation
from doctrain.cli import main
from doctrain.corpus import Corpus, Document
from doctrain.encoder import ModelConfig
from doctrain.errors import DataError
from doctrain.finetune import (FinetuneConfig, TokenClassExample,
                               finetune_token_classification)
from doctrain.losses import hierarchical_loss_rows, triplet_loss
from doctrain.mining import mine_triplets_metadata
from doctrain.model import DocumentModel
from doctrain.rouge import lcs_length
from doctrain.taxonomy import Taxonomy, pad_hierarchy
from doctrain.tensor import Tensor, backward, no_grad
from doctrain.trainer import TrainConfig, pretrain, pretrain_mlm

from conftest import (CATEGORY_WORDS, as_float64, make_document,
                      separable_corpus, triplets_for)

CATS = ("astro", "law", "bio")


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def synth_model(seed):
    # level_sizes matches Taxonomy.from_paths over the three category paths
    return DocumentModel(ModelConfig(
        d_model=32, num_layers=2, num_heads=4, ffn_dim=64, vocab_size=2048,
        max_positions=128, max_sentences=8, lower_layers=1,
        level_sizes=(len(CATS),), seed=seed))


@pytest.fixture(scope="module")
def synthetic():
    corpus = separable_corpus(per_category=20, categories=CATS, seed=0)
    tax = Taxonomy.from_paths([(c,) for c in CATS])
    labels = {d.id: pad_hierarchy(d.hierarchy_path, tax) for d in corpus}
    triplets = triplets_for(corpus, 200, seed=0)
    return corpus, tax, labels, triplets


@pytest.fixture(scope="module")
def separation_run(synthetic):
    """The C5 recipe: 60 docs, 3 categories, 200 triplets, batch 32,
    lr 5e-5 decaying linearly to 0, 5 epochs."""
    corpus, tax, labels, triplets = synthetic
    model = synth_model(11)
    lower_before = model.lower.state_bytes()
    started = time.monotonic()
    result = pretrain(model, corpus, triplets, labels,
                      TrainConfig(batch_size=32, initial_lr=5e-5, epochs=5,
                                  max_triplets=200, loss="both",
                                  log_every=10, seed=0))
    elapsed = time.monotonic() - started
    return model, result, lower_before, elapsed


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_c01_gradients_match_finite_differences():
    started = time.monotonic()
    config = ModelConfig(d_model=8, num_layers=2, num_heads=2, ffn_dim=16,
                         vocab_size=256, max_positions=32, max_sentences=4,
                         lower_layers=1, level_sizes=(2, 3), seed=5)
    model = as_float64(DocumentModel(config))
    rng = np.random.default_rng(3)
    docs = [make_document(f"d{i}", cat, rng, num_sentences=3)
            for i, cat in enumerate(CATS)]
    tax = Taxonomy.from_paths([("astro", "x"), ("law", "y"), ("bio", "z")])
    labels = [pad_hierarchy((d.category,), tax) for d in docs]
    matrices = model.sentence_matrices([list(d.sentences) for d in docs])
    targets = [np.array([lab.indices[lv] for lab in labels])
               for lv in range(tax.depth)]

    def combined_loss():
        vecs = model.encode_matrices(matrices)
        anchor, pos, neg = (T.embedding(vecs, [i]) for i in range(3))
        margin_part = triplet_loss(anchor, pos, neg)
        logits = model.heads.logits_matrix(vecs)
        return margin_part + hierarchical_loss_rows(logits, targets,
                                                    num_sets=1)

    with no_grad():
        vecs = model.encode_matrices(matrices).data
    hinge_arg = (np.linalg.norm(vecs[0] - vecs[1])
                 - np.linalg.norm(vecs[0] - vecs[2]) + 1.0)
    assert hinge_arg > 0.1  # keep the finite differences off the relu kink

    loss = combined_loss()
    backward(loss)
    h = 1e-5
    worst = 0.0
    checked = 0
    for name, p in model.named_params().items():
        grads = (np.zeros(p.data.size) if p.grad is None
                 else p.grad.reshape(-1))
        flat = p.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = float(combined_loss().data)
            flat[k] = orig - h
            down = float(combined_loss().data)
            flat[k] = orig
            fd = (up - down) / (2 * h)
            rel = abs(grads[k] - fd) / max(1e-4, abs(grads[k]), abs(fd))
            worst = max(worst, rel)
            checked += 1
    elapsed = time.monotonic() - started
    assert worst < 1e-4
    assert elapsed < 60.0
    ok("C1", f"{checked} parameters, max relative error {worst:.3e} "
             f"in {elapsed:.1f}s")


def test_c02_loss_oracles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        b = int(rng.integers(1, 5))
        d = int(rng.integers(2, 8))
        a, p, n = (rng.normal(size=(b, d)) for _ in range(3))
        want = np.mean([max(np.linalg.norm(a[i] - p[i])
                            - np.linalg.norm(a[i] - n[i]) + 1.0, 0.0)
                        for i in range(b)])
        got = float(triplet_loss(Tensor(a), Tensor(p), Tensor(n)).data)
        assert got == pytest.approx(want, abs=1e-6)

    for _ in range(100):
        docs = int(rng.integers(1, 5))
        sets = int(rng.integers(1, docs + 1))
        levels = int(rng.integers(1, 4))
        logits, targets, want = [], [], 0.0
        for _ in range(levels):
            c = int(rng.integers(2, 6))
            z = rng.normal(size=(docs, c))
            t = rng.integers(c, size=docs)
            logits.append(Tensor(z))
            targets.append(t)
            for zi, ti in zip(z, t):
                want += -(zi[ti] - np.log(np.exp(zi - zi.max()).sum())
                          - zi.max())
        got = float(hierarchical_loss_rows(logits, targets, sets).data)
        assert got == pytest.approx(want / sets, abs=1e-6)

    same = Tensor(rng.normal(size=(3, 4)))
    assert float(triplet_loss(same, same, same).data) == pytest.approx(
        1.0, abs=1e-12)
    binary = float(hierarchical_loss_rows([Tensor(np.zeros((1, 2)))],
                                          [np.array([0])], num_sets=1).data)
    assert binary == pytest.approx(np.log(2.0), abs=1e-12)
    ok("C2", "200 random oracle cases within 1e-6 (1-4 documents per "
             "hierarchy call); exact anchors "
             "(identical-document loss 1, uniform binary CE ln 2)")


def test_c03_featurizer_frozen_through_pretraining(separation_run):
    model, result, lower_before, _ = separation_run
    assert model.lower.state_bytes() == lower_before
    finals = {r["group"]: r for r in result.drift if r["step"] == "final"}
    assert finals["lower"]["relative_l1_change"] == 0.0
    ok("C3", "featurizer bytes identical and drift exactly 0.0 after a "
             "full pre-training run")


WORDS = ["flux", "tort", "gene", "lens", "writ", "cell", "star", "suit",
         "acid", "dust"]


def random_corpus(rng, mode):
    docs = []
    for c in range(int(rng.integers(2, 5))):
        pool = [f"c{c}-{k}" for k in range(3)]
        # first category gets >= 2 docs so a positive pair always exists;
        # any two 2-of-3 concept picks overlap, cross-category picks never do
        n = int(rng.integers(2, 5)) if c == 0 else int(rng.integers(1, 5))
        for i in range(n):
            sentences = tuple(" ".join(rng.choice(WORDS, size=4)) + "."
                              for _ in range(2))
            docs.append(Document(
                id=f"cat{c}-doc{i}", sentences=sentences,
                category=f"cat{c}", hierarchy_path=(f"cat{c}",),
                concepts=frozenset(rng.choice(pool, size=2, replace=False))))
    return Corpus(docs, mode)


def check_triplet(corpus, t, mode):
    a = corpus.get(t.anchor_id)
    p = corpus.get(t.positive_id)
    n = corpus.get(t.negative_id)
    assert len({t.anchor_id, t.positive_id, t.negative_id}) == 3
    if mode == "legal":
        assert a.concepts & p.concepts
        assert not a.concepts & n.concepts
    else:
        assert a.category == p.category
        assert a.category != n.category


def test_c04_miner_soundness_over_1000_corpora():
    modes = ("customer_support", "scientific", "legal")
    total = 0
    for i in range(1000):
        rng = np.random.default_rng(20000 + i)
        mode = modes[i % 3]
        corpus = random_corpus(rng, mode)
        count = int(rng.integers(1, 4))
        triplets = mine_triplets_metadata(corpus, count, seed=i)
        want = count if mode == "customer_support" else 2 * count
        assert len(triplets) == want
        for t in triplets:
            check_triplet(corpus, t, mode)
        if mode != "customer_support":
            for k in range(0, len(triplets), 2):
                first, second = triplets[k], triplets[k + 1]
                assert second.anchor_id == first.positive_id
                assert second.positive_id == first.anchor_id
                assert second.negative_id == first.negative_id
        total += len(triplets)
    ok("C4", f"{total} triplets from 1000 corpora all pass independent "
             f"re-checks; emission counts exact")


def test_c05_separation_at_desk_scale(synthetic, separation_run):
    corpus, tax, labels, _ = synthetic
    model, result, _, elapsed = separation_run

    losses = [r["loss"] for r in result.loss_curve]
    first, last = np.mean(losses[:3]), np.mean(losses[-3:])
    assert last < first

    with no_grad():
        vecs = {d.id: model.encode_document(list(d.sentences)).data
                for d in corpus}
    intra, inter = [], []
    for a, b in itertools.combinations(list(corpus), 2):
        sim = cosine(vecs[a.id], vecs[b.id])
        (intra if a.category == b.category else inter).append(sim)
    gap = np.mean(intra) - np.mean(inter)
    assert gap >= 0.1

    rng = np.random.default_rng(99)
    held = [make_document(f"held-{c}-{i}", c, rng, hierarchy=(c,))
            for c in CATS for i in range(5)]
    correct = 0
    for doc in held:
        with no_grad():
            vec = model.encode_matrices(
                model.sentence_matrices([list(doc.sentences)]))
            level0 = model.heads.logits_matrix(vec)[0].data.ravel()
        target = pad_hierarchy(doc.hierarchy_path, tax).indices[0]
        correct += int(np.argmax(level0) == target)
    accuracy = correct / len(held)
    chance = 1.0 / len(CATS)
    assert accuracy > 1.5 * chance
    assert elapsed < 600.0
    ok("C5", f"loss {first:.4f}->{last:.4f}, cosine gap {gap:.3f}, "
             f"held-out accuracy {accuracy:.2f} vs chance {chance:.2f}, "
             f"{elapsed:.1f}s")


def topical_examples(rng, count, words_per_cat):
    names = list(CATEGORY_WORDS)
    out = []
    for _ in range(count):
        c = int(rng.integers(3))
        pool = CATEGORY_WORDS[names[c]][:words_per_cat]
        toks = tuple(pool[rng.integers(len(pool))] for _ in range(6))
        out.append(TokenClassExample(toks, (c,) * 6))
    return out


def test_c06_pretrained_initialization_benefit(synthetic):
    corpus, _, labels, triplets = synthetic
    pretrain_config = TrainConfig(batch_size=32, initial_lr=5e-5, epochs=10,
                                  max_triplets=200, loss="both",
                                  log_every=1000, seed=0)
    tune_config = FinetuneConfig(lr=1e-3, epochs=10, patience=50,
                                 max_examples=8, seed=0)
    warm_scores, cold_scores = [], []
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        # dev includes three held-out words per category, so scores reward
        # propagating category context into unseen tokens
        train = topical_examples(rng, 16, words_per_cat=7)
        dev = topical_examples(rng, 36, words_per_cat=10)
        warm = synth_model(seed)
        pretrain(warm, corpus, triplets, labels, pretrain_config)
        _, warm_result = finetune_token_classification(
            warm, train, dev, 3, tune_config)
        cold = synth_model(seed)
        _, cold_result = finetune_token_classification(
            cold, train, dev, 3, tune_config)
        warm_scores.append(warm_result.metrics["macro_f1"])
        cold_scores.append(cold_result.metrics["macro_f1"])
    warm_mean, cold_mean = np.mean(warm_scores), np.mean(cold_scores)
    assert warm_mean >= cold_mean
    ok("C6", f"pretrained init mean macro-F1 {warm_mean:.4f} >= random "
             f"init {cold_mean:.4f} over 5 paired seeds")


def test_c07_representation_correspondence(synthetic, separation_run):
    corpus, _, _, _ = synthetic
    model, _, _, _ = separation_run
    docs = [list(d.sentences) for d in list(corpus)[:20]]
    report = representation_correlation(model, docs)
    assert report.num_pairs == 190
    assert not report.degenerate
    assert report.pearson_r > 0.0
    ok("C7", f"r = {report.pearson_r:.3f} > 0 over exactly "
             f"{report.num_pairs} pairs")


def test_c08_drift_gap_between_objectives(synthetic):
    corpus, _, labels, _ = synthetic
    triplets = triplets_for(corpus, 64, seed=0)
    # 64 triplets and 60 documents both give ceil(n/32) = 2 steps per epoch,
    # so the two objectives see identical step budgets
    config = TrainConfig(batch_size=32, initial_lr=5e-5, epochs=25,
                         max_triplets=64, loss="both", log_every=1000, seed=0)
    doc_model, mlm_model = synth_model(11), synth_model(11)
    doc_result = pretrain(doc_model, corpus, triplets, labels, config)
    mlm_result = pretrain_mlm(mlm_model, corpus, config)
    assert doc_result.total_steps == mlm_result.total_steps

    doc_final = {r["group"]: r["relative_l1_change"]
                 for r in doc_result.drift if r["step"] == "final"}
    mlm_final = {r["group"]: r["relative_l1_change"]
                 for r in mlm_result.drift if r["step"] == "final"}
    shared = sorted(g for g in doc_final if g.startswith("upper."))
    wins = [g for g in shared if doc_final[g] < mlm_final[g]]
    assert len(wins) > len(shared) / 2
    ok("C8", f"document objective drifts less on {len(wins)} of "
             f"{len(shared)} trainable groups at {doc_result.total_steps} "
             f"equal steps")


def test_c09_rouge_matches_exhaustive_oracle():
    alphabet = ("a", "b", "c")
    seqs = [()]
    for n in range(1, 7):
        seqs.extend(itertools.product(alphabet, repeat=n))
    subseq_sets = []
    for s in seqs:
        subs = set()
        for r in range(len(s) + 1):
            subs.update(itertools.combinations(s, r))
        subseq_sets.append(frozenset(subs))
    checked = 0
    for i, (a, set_a) in enumerate(zip(seqs, subseq_sets)):
        for j in range(i, len(seqs)):
            want = max(len(s) for s in set_a & subseq_sets[j])
            assert lcs_length(list(a), list(seqs[j])) == want
            checked += 1
    ok("C9", f"{checked} sequence pairs agree with the exhaustive "
             f"subsequence oracle")


SMALL_FLAGS = ["--d-model", "16", "--num-layers", "1", "--num-heads", "2",
               "--ffn-dim", "32", "--vocab-size", "512",
               "--max-positions", "64", "--max-sentences", "8",
               "--lower-layers", "1"]


def test_c10_manifest_determinism(synthetic, tmp_path):
    corpus, tax, _, _ = synthetic
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w") as fh:
        for d in corpus:
            fh.write(json.dumps({"id": d.id, "category": d.category,
                                 "hierarchy": list(d.hierarchy_path),
                                 "sentences": list(d.sentences)}) + "\n")
    tax_path = tmp_path / "tax.txt"
    tax.save(tax_path)
    triplet_path = tmp_path / "tri.jsonl"
    assert main(["mine", "--corpus", str(corpus_path), "--out",
                 str(triplet_path), "--mode", "customer_support",
                 "--count", "8", "--seed", "3"]) == 0

    ckpt_path = tmp_path / "model.ckpt"
    argv = ["pretrain", "--corpus", str(corpus_path), "--out",
            str(ckpt_path), "--mode", "customer_support",
            "--triplets", str(triplet_path), "--taxonomy", str(tax_path),
            "--batch", "4", "--epochs", "1", "--max-triplets", "8",
            "--seed", "3", *SMALL_FLAGS]
    assert main(argv) == 0
    first_ckpt = ckpt_path.read_bytes()
    first_losses = (tmp_path / "model.ckpt.losses.jsonl").read_bytes()
    assert main(["--replay", str(ckpt_path) + ".manifest.json"]) == 0
    assert ckpt_path.read_bytes() == first_ckpt
    assert (tmp_path / "model.ckpt.losses.jsonl").read_bytes() == first_losses

    train_path = tmp_path / "train.jsonl"
    with open(train_path, "w") as fh:
        for i in range(8):
            fh.write(json.dumps({"tokens": ["flux", "tort", "gene"],
                                 "labels": [i % 2, 0, 1]}) + "\n")
    metrics_path = tmp_path / "metrics.json"
    assert main(["finetune", "--checkpoint", str(ckpt_path),
                 "--task", "token-classification", "--num-classes", "2",
                 "--train", str(train_path), "--dev", str(train_path),
                 "--metrics-out", str(metrics_path),
                 "--epochs", "2", "--lr", "1e-3", "--seed", "3"]) == 0
    first_metrics = metrics_path.read_bytes()
    assert main(["--replay", str(metrics_path) + ".manifest.json"]) == 0
    assert metrics_path.read_bytes() == first_metrics
    ok("C10", "checkpoint, loss curve and metric report reproduced "
              "byte-identically from their manifests")


def test_c11_lora_contract():
    model = synth_model(4)
    sentences = ["the lien accrues against the estate",
                 "counsel moved to remand the docket"]
    [matrix] = model.sentence_matrices([sentences])
    ids = [7, 40, 3, 511]
    with no_grad():
        base_doc = model.encode_matrices([matrix]).data.copy()
        base_tok = model.encode_token_batch([ids]).data.copy()

    rank0 = model.attach_adapter(0, ("query", "value"), seed=9)
    assert model.adapter is rank0
    assert rank0.trainable_tensors() == []
    with no_grad():
        assert np.array_equal(model.encode_matrices([matrix]).data, base_doc)
        assert np.array_equal(model.encode_token_batch([ids]).data, base_tok)
    model.adapter = None

    rank = 2
    adapter = model.attach_adapter(rank, ("query", "value"), seed=9)
    assert model.adapter is adapter
    with no_grad():
        assert np.array_equal(model.encode_matrices([matrix]).data, base_doc)
        assert np.array_equal(model.encode_token_batch([ids]).data, base_tok)
    tensors = adapter.trainable_tensors()
    d = model.config.d_model
    matrices = model.config.num_layers * 2  # query and value per layer
    assert len(tensors) == matrices * 2  # one A and one B per matrix
    per_matrix = [tensors[k].data.size + tensors[k + 1].data.size
                  for k in range(0, len(tensors), 2)]
    assert per_matrix == [2 * rank * d] * matrices
    model.adapter = None
    ok("C11", f"rank-0 and fresh rank-{rank} adapters bit-exact on both "
              f"paths; {matrices} adapted matrices at {2 * rank * d} "
              f"parameters each")
