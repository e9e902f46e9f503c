"""Document-level pre-training with a frozen sentence featurizer, plus the
data pipelines and analyses that go with it."""

from .checkpoint import Checkpoint, load_checkpoint, parse_checkpoint, save_checkpoint
from .corpus import Corpus, Document, load_corpus, save_corpus
from .encoder import LoraAdapter, ModelConfig
from .errors import DocTrainError, exit_code_for
from .finetune import (FinetuneConfig, PairExample, SpanQaExample,
                       TokenClassExample, finetune_pair_classification,
                       finetune_span_qa, finetune_token_classification)
from .losses import triplet_loss
from .mining import Triplet, mine_triplets_metadata, mine_triplets_rouge
from .model import DocumentModel
from .rouge import rouge_l
from .taxonomy import Taxonomy, derive_taxonomy, map_category_to_hierarchy
from .trainer import TrainConfig, pretrain, pretrain_mlm, track_drift

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "Corpus", "Document", "DocumentModel", "DocTrainError",
    "FinetuneConfig", "LoraAdapter", "ModelConfig", "PairExample",
    "SpanQaExample", "Taxonomy", "TokenClassExample", "TrainConfig",
    "Triplet", "derive_taxonomy", "exit_code_for",
    "finetune_pair_classification", "finetune_span_qa",
    "finetune_token_classification", "load_checkpoint",
    "load_corpus", "map_category_to_hierarchy", "mine_triplets_metadata",
    "mine_triplets_rouge", "parse_checkpoint", "pretrain", "pretrain_mlm",
    "rouge_l", "save_checkpoint", "save_corpus", "track_drift",
    "triplet_loss", "__version__",
]
