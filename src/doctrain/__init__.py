"""Document-level pre-training with a frozen sentence featurizer, plus the
data pipelines and analyses that go with it.

Importing the package imports none of its submodules: each public name, and
each submodule, is imported on first access, so a program that uses one part
does not pay for the rest at start-up.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "checkpoint": ("Checkpoint", "load_checkpoint", "parse_checkpoint",
                   "save_checkpoint"),
    "corpus": ("Corpus", "Document", "load_corpus", "save_corpus"),
    "encoder": ("LoraAdapter", "ModelConfig"),
    "errors": ("DocTrainError", "exit_code_for"),
    "finetune": ("FinetuneConfig", "PairExample", "SpanQaExample",
                 "TokenClassExample", "finetune_pair_classification",
                 "finetune_span_qa", "finetune_token_classification"),
    "losses": ("triplet_loss",),
    "mining": ("Triplet", "mine_triplets_metadata", "mine_triplets_rouge"),
    "model": ("DocumentModel",),
    "rouge": ("rouge_l",),
    "taxonomy": ("Taxonomy", "derive_taxonomy", "map_category_to_hierarchy"),
    "trainer": ("TrainConfig", "pretrain", "pretrain_mlm"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset({
    "analysis", "checkpoint", "cli", "corpus", "encoder", "errors",
    "finetune", "losses", "manifest", "mining", "model", "optim", "records",
    "rouge", "seeding", "taxonomy", "tensor", "text", "trainer",
})

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule, on first access; the
    result is kept in the package, so later lookups skip this."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
