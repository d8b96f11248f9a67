"""Streaming malware classification with drift detection and retrainable features."""

from .drift import (AdwinDetector, DdmDetector, DriftLevel, EddmDetector,
                    KswinDetector, NeverFiresDetector, ks_pvalue, ks_statistic)
from .errors import (ClassMissingInFold, ConfigError, DimensionMismatch,
                     DriftStreamError, EmptyCounts, EmptyInput, EmptyStream,
                     EmptyTrainingSet, InsufficientData, InsufficientTimeSpan,
                     InvalidFraction, InvalidSpec, ParseError, SchemaMismatch,
                     UnlabeledSample, ValueOutOfRange, WarmupTooSmall)
from .evaluation import (ConfusionCounts, DriftEvent, MetricsTimeline,
                         PeriodMetrics, export_reports, metrics,
                         prequential_error)
from .features import (AttributeVocabulary, FeatureExtractorModel,
                       VocabularyDiff, fit_extractor, vocabulary_diff)
from .learners import (ArfEnsemble, HoeffdingTreeClassifier, PoolMember,
                       SgdClassifier)
from .pipeline import (CLASSIFIERS, DETECTORS, STRATEGIES, ExperimentConfig,
                       FnFPipeline, FoldReport, ModelPoolPipeline, MtsReport,
                       parse_duration, resolve_warmup_count,
                       run_cross_validation, run_iwc, run_multiple_time_spans,
                       run_temporal_split)
from .stream import (RawSample, SampleStream, StreamSchema, load_stream,
                     save_stream, split_temporal, stream_from_samples)
from .synth import SynthStreamSpec, generate_synth_stream

__version__ = "0.1.0"
