"""Command-line entry point: mine, derive-taxonomy, pretrain, finetune,
analyze, inspect-checkpoint, plus manifest-driven replay."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .analysis import (EMBEDDING_MODES, paragraph_similarity, pca_project,
                       representation_correlation, wl_metric)
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import DOMAIN_MODES, load_corpus
from .encoder import LORA_TARGETS, ModelConfig
from .errors import (ConfigError, DataError, DocTrainError, ParseError,
                     ValidationError, exit_code_for)
from .finetune import (FinetuneConfig, finetune_pair_classification,
                       finetune_span_qa, finetune_token_classification,
                       load_pairs, load_span_qa, load_token_class)
from .manifest import (RunRecorder, argv_from_manifest, file_digest,
                       load_manifest, verify_replay)
from .mining import load_triplets, mine_triplets_metadata, mine_triplets_rouge, save_triplets
from .model import DocumentModel
from .records import list_field, read_jsonl, write_json, write_jsonl
from .taxonomy import (Taxonomy, WordVectors, derive_taxonomy,
                       map_category_to_hierarchy, pad_hierarchy)
from .trainer import LOSS_MODES, TrainConfig, pretrain, pretrain_mlm

log = logging.getLogger(__name__)

TASKS = ("span-qa", "token-classification", "pair-classification")
ANALYSES = ("wl", "correlation", "pca", "paragraphs")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-model", type=int, default=32,
                   help="width of every embedding and encoder layer")
    p.add_argument("--num-layers", type=int, default=2,
                   help="upper-encoder transformer layers")
    p.add_argument("--num-heads", type=int, default=4,
                   help="attention heads per layer")
    p.add_argument("--ffn-dim", type=int, default=128,
                   help="feed-forward inner width")
    p.add_argument("--vocab-size", type=int, default=8192,
                   help="hashed token vocabulary size")
    p.add_argument("--max-positions", type=int, default=512,
                   help="token-path length cap")
    p.add_argument("--max-sentences", type=int, default=64,
                   help="sentence-path length cap")
    p.add_argument("--lower-layers", type=int, default=2,
                   help="frozen featurizer layers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doctrain",
        description="Document-level pre-training and fine-tuning toolkit.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--replay", default=None, metavar="MANIFEST",
                        help="re-run a recorded manifest and verify that "
                             "outputs reproduce byte-identically")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    fmt = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = sub.add_parser("mine", help="sample constrained document triplets",
                       **fmt)
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out", required=True, help="triplet JSONL output path")
    p.add_argument("--mode", required=True, choices=DOMAIN_MODES,
                   help="corpus domain mode")
    p.add_argument("--strategy", default="metadata",
                   choices=("metadata", "rouge"),
                   help="metadata relation or lexical-overlap thresholds")
    p.add_argument("--count", type=int, default=200,
                   help="triplets to sample before any swap doubling")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--pos-threshold", type=float, default=0.35,
                   help="rouge strategy: minimum anchor/positive F1")
    p.add_argument("--neg-threshold", type=float, default=0.10,
                   help="rouge strategy: maximum anchor/negative F1")
    p.add_argument("--truncate-tokens", type=int, default=512,
                   help="rouge strategy: tokens scored per document")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("derive-taxonomy",
                       help="build a category tree from corpus content",
                       **fmt)
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out", required=True, help="taxonomy output path")
    p.add_argument("--assignments", default=None,
                   help="per-document path assignments JSONL "
                        "(default: <out>.assignments.jsonl)")
    p.add_argument("--mode", default="derived", choices=DOMAIN_MODES,
                   help="corpus domain mode")
    p.add_argument("--levels", type=int, required=True,
                   help="tree depth to derive")
    p.add_argument("--branching", type=int, default=2,
                   help="children per split")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.set_defaults(func=cmd_derive_taxonomy)

    p = sub.add_parser("pretrain",
                       help="train the upper encoder on document triplets",
                       **fmt)
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--mode", default="derived", choices=DOMAIN_MODES,
                   help="corpus domain mode")
    p.add_argument("--triplets", default=None,
                   help="triplet JSONL (required for the doc objective)")
    p.add_argument("--taxonomy", default=None,
                   help="taxonomy file (required when the hierarchy loss is on)")
    p.add_argument("--assignments", default=None,
                   help="JSONL of {id, path} rows assigning taxonomy paths "
                        "to documents that lack one")
    p.add_argument("--word-vectors", default=None,
                   help="word-vector file for mapping bare categories onto "
                        "taxonomy paths")
    p.add_argument("--objective", default="doc", choices=("doc", "mlm"),
                   help="document objective or the masked-token comparison arm")
    p.add_argument("--loss", default="both", choices=LOSS_MODES,
                   help="doc objective: triplet loss, hierarchy loss, or both")
    p.add_argument("--drop-hier-negative", action="store_true",
                   help="exclude the negative document from the hierarchy loss")
    p.add_argument("--batch", type=int, default=32, help="triplets per step")
    p.add_argument("--lr", type=float, default=5e-5,
                   help="initial learning rate, decaying linearly to 0")
    p.add_argument("--epochs", type=int, default=1, help="training epochs")
    p.add_argument("--max-triplets", type=int, default=4000,
                   help="cap on triplets actually trained on")
    p.add_argument("--lora-rank", type=int, default=0,
                   help="> 0 trains low-rank adapters instead of base weights")
    p.add_argument("--lora-targets", nargs="+", default=["query", "value"],
                   choices=list(LORA_TARGETS),
                   help="projections receiving adapters")
    p.add_argument("--log-every", type=int, default=10,
                   help="drift sampling interval in steps")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    _add_model_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune",
                       help="fine-tune a checkpoint on a token-path task",
                       **fmt)
    p.add_argument("--checkpoint", required=True,
                   help="pre-trained checkpoint path")
    p.add_argument("--task", required=True, choices=TASKS,
                   help="task head to train")
    p.add_argument("--train", required=True, help="training JSONL path")
    p.add_argument("--dev", required=True, help="dev JSONL path")
    p.add_argument("--metrics-out", required=True,
                   help="metrics report JSON output path")
    p.add_argument("--out", default=None,
                   help="optional fine-tuned checkpoint output path")
    p.add_argument("--num-classes", type=int, default=None,
                   help="token-classification: label count")
    p.add_argument("--lr", type=float, default=3e-5, help="learning rate")
    p.add_argument("--epochs", type=int, default=30,
                   help="epoch cap (early stopping may end sooner)")
    p.add_argument("--batch", type=int, default=8, help="examples per step")
    p.add_argument("--max-examples", type=int, default=None,
                   help="few-shot budget: train on at most this many examples")
    p.add_argument("--patience", type=int, default=5,
                   help="epochs without dev improvement before stopping")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("analyze",
                       help="embedding-space correspondence reports",
                       **fmt)
    p.add_argument("--kind", required=True, choices=ANALYSES,
                   help="which analysis to run")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out", required=True, help="report JSON output path")
    p.add_argument("--mode", default="derived", choices=DOMAIN_MODES,
                   help="corpus domain mode")
    p.add_argument("--checkpoint", default=None,
                   help="model checkpoint (wl, correlation, pca)")
    p.add_argument("--doc-a", default=None,
                   help="first document id (wl, paragraphs)")
    p.add_argument("--doc-b", default=None,
                   help="second document id (wl, paragraphs)")
    p.add_argument("--embedding-mode", default="sentence",
                   choices=EMBEDDING_MODES,
                   help="wl analysis: which input embeddings to align")
    p.add_argument("--components", type=int, default=2,
                   help="pca: number of principal components")
    p.add_argument("--csv-out", default=None,
                   help="pca: coordinates CSV path (default: <out>.csv)")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("inspect-checkpoint",
                       help="print checkpoint metadata and tensor shapes",
                       **fmt)
    p.add_argument("--checkpoint", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_inspect)

    return parser


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func", "subcommand", "replay"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def cmd_mine(args: argparse.Namespace, rec: RunRecorder) -> None:
    rec.add_input(args.corpus)
    corpus = load_corpus(args.corpus, args.mode)
    rec.phase("load")
    if args.strategy == "metadata":
        triplets = mine_triplets_metadata(corpus, args.count, seed=args.seed)
    else:
        triplets = mine_triplets_rouge(
            corpus, args.count, seed=args.seed,
            pos_threshold=args.pos_threshold,
            neg_threshold=args.neg_threshold,
            truncate_tokens=args.truncate_tokens)
    rec.phase("mine")
    save_triplets(triplets, rec.add_output(args.out))
    rec.phase("write")
    log.info("wrote %d triplets to %s", len(triplets), args.out)


def cmd_derive_taxonomy(args: argparse.Namespace, rec: RunRecorder) -> None:
    rec.add_input(args.corpus)
    corpus = load_corpus(args.corpus, args.mode)
    rec.phase("load")
    taxonomy, doc_paths = derive_taxonomy(
        corpus, levels=args.levels, branching=args.branching, seed=args.seed)
    rec.phase("derive")
    taxonomy.save(rec.add_output(args.out))
    write_jsonl(rec.add_output(args.assignments),
                [{"id": doc_id, "path": list(doc_paths[doc_id])}
                 for doc_id in sorted(doc_paths)])
    rec.phase("write")


def _load_assignments(path) -> dict[str, tuple[str, ...]]:
    return dict(read_jsonl(path, lambda obj, _: (str(obj["id"]),
                                                 list_field(obj, "path"))))


def _hierarchy_labels(corpus, taxonomy: Taxonomy, word_vectors_path,
                      assignments_path=None):
    vectors = (WordVectors.load(word_vectors_path)
               if word_vectors_path else None)
    assigned = (_load_assignments(assignments_path)
                if assignments_path else {})
    labels = {}
    unmapped = []
    for doc in corpus:
        path = doc.hierarchy_path or assigned.get(doc.id)
        if path:
            labels[doc.id] = pad_hierarchy(path, taxonomy)
        elif vectors is not None and doc.category:
            mapped = map_category_to_hierarchy(doc.category, taxonomy, vectors)
            labels[doc.id] = pad_hierarchy(mapped, taxonomy)
        else:
            unmapped.append(doc.id)
    if unmapped:
        raise ValidationError(
            f"{len(unmapped)} documents have no hierarchy path and no "
            f"category mapping (first few: {unmapped[:5]}); provide "
            f"hierarchy fields, --assignments, or --word-vectors")
    return labels


def cmd_pretrain(args: argparse.Namespace, rec: RunRecorder) -> None:
    rec.add_input(args.corpus)
    corpus = load_corpus(args.corpus, args.mode)

    train_config = TrainConfig(
        batch_size=args.batch, initial_lr=args.lr, epochs=args.epochs,
        max_triplets=args.max_triplets, loss=args.loss,
        hier_negative=not args.drop_hier_negative,
        log_every=args.log_every, lora_rank=args.lora_rank,
        lora_targets=tuple(args.lora_targets), seed=args.seed).validate()

    use_hier = args.objective == "doc" and args.loss in ("hier", "both")
    taxonomy = None
    labels = None
    if use_hier:
        if args.taxonomy is None:
            raise ConfigError("--taxonomy is required when the hierarchy "
                              "loss is on (--loss hier|both)")
        rec.add_input(args.taxonomy)
        taxonomy = Taxonomy.load(args.taxonomy)
        if args.word_vectors:
            rec.add_input(args.word_vectors)
        if args.assignments:
            rec.add_input(args.assignments)
        labels = _hierarchy_labels(corpus, taxonomy, args.word_vectors,
                                   args.assignments)
    level_sizes = tuple(taxonomy.level_sizes) if taxonomy else ()

    model_config = ModelConfig(
        d_model=args.d_model, num_layers=args.num_layers,
        num_heads=args.num_heads, ffn_dim=args.ffn_dim,
        vocab_size=args.vocab_size, max_positions=args.max_positions,
        max_sentences=args.max_sentences, lower_layers=args.lower_layers,
        level_sizes=level_sizes, seed=args.seed)
    model = DocumentModel(model_config)
    rec.phase("setup")

    if args.objective == "mlm":
        result = pretrain_mlm(model, corpus, train_config)
    else:
        if args.triplets is None:
            raise ConfigError("--triplets is required for the doc objective")
        rec.add_input(args.triplets)
        triplets = load_triplets(args.triplets)
        result = pretrain(model, corpus, triplets, labels, train_config)
    rec.phase("train")

    save_checkpoint(result.checkpoint, rec.add_output(args.out))
    write_jsonl(rec.add_output(args.out + ".losses.jsonl"),
                result.loss_curve)
    write_jsonl(rec.add_output(args.out + ".drift.jsonl"),
                result.drift.rows())
    rec.phase("write")
    log.info("trained %d steps; final loss %.6f", result.total_steps,
             result.loss_curve[-1]["loss"])


def cmd_finetune(args: argparse.Namespace, rec: RunRecorder) -> None:
    rec.add_input(args.checkpoint)
    model = DocumentModel.from_checkpoint(load_checkpoint(args.checkpoint))
    rec.add_input(args.train)
    rec.add_input(args.dev)
    config = FinetuneConfig(
        lr=args.lr, epochs=args.epochs, batch_size=args.batch,
        max_examples=args.max_examples, patience=args.patience,
        seed=args.seed).validate()
    rec.phase("load")

    if args.task == "span-qa":
        train, dev = load_span_qa(args.train), load_span_qa(args.dev)
        task, result = finetune_span_qa(model, train, dev, config)
    elif args.task == "token-classification":
        if args.num_classes is None:
            raise ConfigError("--num-classes is required for "
                              "token-classification")
        train = load_token_class(args.train)
        dev = load_token_class(args.dev)
        task, result = finetune_token_classification(
            model, train, dev, args.num_classes, config)
    else:
        train, dev = load_pairs(args.train), load_pairs(args.dev)
        task, result = finetune_pair_classification(model, train, dev, config)
    rec.phase("train")

    write_json(rec.add_output(args.metrics_out), {
        "task": args.task,
        "metrics": result.metrics,
        "history": result.history,
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
    })
    if args.out is not None:
        ckpt = model.to_checkpoint(extra_meta={"finetuned_task": args.task})
        for i, t in enumerate(task.head_tensors()):
            ckpt.tensors[f"task_head.{i}"] = t.data.astype("<f4")
        save_checkpoint(ckpt, rec.add_output(args.out))
    rec.phase("write")
    log.info("fine-tuned %s: %s", args.task, result.metrics)


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ConfigError(f"analysis kind {args.kind!r} requires {flags}")


def cmd_analyze(args: argparse.Namespace, rec: RunRecorder) -> None:
    rec.add_input(args.corpus)
    corpus = load_corpus(args.corpus, args.mode)
    model = None
    if args.kind in ("wl", "correlation", "pca"):
        _require(args, ["checkpoint"])
        rec.add_input(args.checkpoint)
        model = DocumentModel.from_checkpoint(load_checkpoint(args.checkpoint))
    rec.phase("load")

    if args.kind == "wl":
        _require(args, ["doc-a", "doc-b"])
        doc_a = list(corpus.get(args.doc_a).sentences)
        doc_b = list(corpus.get(args.doc_b).sentences)
        report = {"kind": "wl", "doc_a": args.doc_a, "doc_b": args.doc_b,
                  "embedding_mode": args.embedding_mode,
                  "wl": wl_metric(model, doc_a, doc_b, args.embedding_mode)}
    elif args.kind == "correlation":
        docs = [list(d.sentences) for d in corpus]
        rep = representation_correlation(model, docs)
        report = {"kind": "correlation", "pearson_r": rep.pearson_r,
                  "num_pairs": rep.num_pairs, "degenerate": rep.degenerate}
    elif args.kind == "pca":
        ids = [d.id for d in corpus]
        vecs = model.encode_documents([list(d.sentences) for d in corpus])
        res = pca_project(vecs, k=args.components, seed=args.seed)
        with open(rec.add_output(args.csv_out), "w", encoding="utf-8") as fh:
            fh.write("id," + ",".join(f"c{i}" for i in range(args.components))
                     + "\n")
            for doc_id, row in zip(ids, res.coordinates):
                fh.write(doc_id + "," + ",".join(f"{v:.10g}" for v in row)
                         + "\n")
        report = {"kind": "pca", "components": args.components,
                  "explained_variance": [float(v) for v
                                         in res.explained_variance],
                  "coordinates_csv": args.csv_out}
    else:
        _require(args, ["doc-a", "doc-b"])
        da = corpus.get(args.doc_a)
        db = corpus.get(args.doc_b)
        text_a = da.text or "\n\n".join(da.sentences)
        text_b = db.text or "\n\n".join(db.sentences)
        rep = paragraph_similarity(text_a, text_b)
        report = {"kind": "paragraphs", "doc_a": args.doc_a,
                  "doc_b": args.doc_b,
                  "scores_a": [float(v) for v in rep.scores_a],
                  "scores_b": [float(v) for v in rep.scores_b],
                  "bin_edges": [float(v) for v in rep.bin_edges],
                  "histogram": [int(v) for v in rep.histogram]}
    rec.phase("analyze")

    write_json(rec.add_output(args.out), report)
    rec.phase("write")


def cmd_inspect(args: argparse.Namespace, rec: RunRecorder) -> None:
    rec.add_input(args.checkpoint)
    ckpt = load_checkpoint(args.checkpoint)
    rec.phase("load")
    report = {
        "version": ckpt.version,
        "digest": ckpt.digest,
        "meta": ckpt.meta,
        "tensors": {name: list(t.shape)
                    for name, t in sorted(ckpt.tensors.items())},
        "parameter_count": int(sum(t.size for t in ckpt.tensors.values())),
    }
    # read-only subcommand: report and manifest go to stdout, no files
    manifest = rec.finish()
    print(json.dumps({"report": report, "manifest": manifest.to_dict()},
                     indent=2, sort_keys=True))


def _materialize_defaults(args: argparse.Namespace) -> None:
    """Resolve defaults that depend on other flags, so the manifest records
    concrete values."""
    if args.subcommand == "derive-taxonomy" and args.assignments is None:
        args.assignments = args.out + ".assignments.jsonl"
    if (args.subcommand == "analyze" and args.kind == "pca"
            and args.csv_out is None):
        args.csv_out = args.out + ".csv"


def _manifest_path(args: argparse.Namespace) -> str:
    primary = getattr(args, "out", None) or getattr(args, "metrics_out", None)
    return str(primary) + ".manifest.json"


def _run_subcommand(args: argparse.Namespace):
    """Run one handler, then commit its staged outputs and manifest.

    A replay never commits: its rerun is only digested, so the recorded
    outputs and manifest it is checked against stay as they were.
    """
    _materialize_defaults(args)
    rec = RunRecorder(args.subcommand, _resolved_config(args))
    try:
        args.func(args, rec)
        if args.subcommand != "inspect-checkpoint":
            rec.finish()
            if args.replay is None:
                manifest_path = _manifest_path(args)
                rec.commit(manifest_path)
                log.info("manifest written to %s", manifest_path)
    finally:
        rec.discard()
    return rec.manifest


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("DOCTRAIN_LOG", "INFO"),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.replay is not None:
            recorded = load_manifest(args.replay)
            try:
                replay_args = parser.parse_args(
                    ["--replay", args.replay, *argv_from_manifest(recorded)])
            except SystemExit:
                raise ParseError(f"manifest {args.replay} records a config "
                                 f"that does not parse") from None
            # name a changed input before paying for a rerun whose outputs
            # would only show up as changed
            changed = sorted(path for path, digest in recorded.inputs.items()
                             if file_digest(path) != digest)
            if changed:
                raise DataError(f"replay inputs changed since the manifest "
                                f"was recorded: {changed}")
            fresh = _run_subcommand(replay_args)
            verify_replay(recorded, fresh)
            print(f"replay verified: {len(fresh.output_digests)} outputs "
                  f"reproduced byte-identically")
            return 0
        if args.subcommand is None:
            parser.print_help()
            return 2
        _run_subcommand(args)
        return 0
    except (DocTrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
