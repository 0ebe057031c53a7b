"""Self-supervised embeddings and inductive link prediction for weighted
bipartite graphs: bootstrapped pretraining with weight-aware augmentation,
a frozen-encoder MLP link decoder, and a ranking-metric evaluation harness.
"""

from .graph import (BipartiteGraph, EdgeArray, TemporalSplit,
                    build_weighted_adjacency, chronological_split, load_graph,
                    sample_negatives)
from .metrics import aggregate, average_precision, hits_at_k, roc_auc, threshold_prf
from .training import (FrozenEmbeddings, VariantConfig, eval_inputs,
                       extract_embeddings, pretrain, score_eval, train_decoder)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph", "EdgeArray", "TemporalSplit",
    "build_weighted_adjacency", "chronological_split", "load_graph",
    "sample_negatives", "aggregate", "average_precision", "hits_at_k",
    "roc_auc", "threshold_prf", "FrozenEmbeddings",
    "VariantConfig", "eval_inputs", "extract_embeddings", "pretrain",
    "score_eval", "train_decoder", "__version__",
]
