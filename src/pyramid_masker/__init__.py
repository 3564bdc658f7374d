"""Build gap-sentence-generation pretraining examples from
multi-document clusters.

The public surface re-exports the types most callers need; the
submodules stay importable for everything else.
"""

from .entities import (
    EntityMention,
    EntitySource,
    PyramidEntry,
    build_pyramid,
    extract_entities,
)
from .ingest import (
    CorpusError,
    CorpusStats,
    DocumentCluster,
    EntityAnnotation,
    RecordError,
    compute_corpus_stats,
    load_clusters,
)
from .mask import (
    MaskConfig,
    MaskedExample,
    MaskingError,
    RoundtripResult,
    build_masked_example,
    roundtrip_check,
    truncate_per_document,
)
from .pipeline import PipelineConfig, process_cluster, run_mask
from .pyr_eval import CoverageAggregation, LengthUnit, PyramidScore
from .rouge import (
    ClusterScorer,
    RougeScore,
    SalienceVariant,
    rouge_l,
    rouge_n,
)
from .segment import (
    NormalizationConfig,
    Sentence,
    Stemming,
    normalize_tokens,
    segment_cluster,
    split_sentences,
)
from .selection import (
    SelectionConfig,
    SelectionResult,
    Strategy,
    compute_copy_count,
    compute_mask_count,
    select_sentences,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterScorer",
    "CorpusError",
    "CorpusStats",
    "CoverageAggregation",
    "DocumentCluster",
    "EntityAnnotation",
    "EntityMention",
    "EntitySource",
    "LengthUnit",
    "MaskConfig",
    "MaskedExample",
    "MaskingError",
    "NormalizationConfig",
    "PipelineConfig",
    "PyramidEntry",
    "PyramidScore",
    "RecordError",
    "RougeScore",
    "RoundtripResult",
    "SalienceVariant",
    "SelectionConfig",
    "SelectionResult",
    "Sentence",
    "Stemming",
    "Strategy",
    "build_masked_example",
    "build_pyramid",
    "compute_copy_count",
    "compute_corpus_stats",
    "compute_mask_count",
    "extract_entities",
    "load_clusters",
    "normalize_tokens",
    "process_cluster",
    "rouge_l",
    "rouge_n",
    "roundtrip_check",
    "run_mask",
    "segment_cluster",
    "select_sentences",
    "split_sentences",
    "truncate_per_document",
]
