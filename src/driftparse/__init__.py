"""Adaptive key-value log parsing with pattern mining and hidden Markov models."""

from .adapt import (
    AdaptReport,
    adapt_baum_welch,
    adapt_viterbi,
)
from .bundle import BundleError, ModelBundle, load_bundle, save_bundle
from .corpus import (
    GeneratorConfig,
    LogLoadResult,
    generate_corpus,
    load_kpi_table,
    load_log,
    write_log,
)
from .evaluate import (
    ConfusionMatrix,
    accuracy,
    confusion,
    sensitivity,
    stratified_split,
)
from .hmm import (
    FitConfig,
    Hmm,
    TriggerNotFoundError,
    baum_welch_fit,
    build_hmm,
    find_trigger_state,
    sequence_loglikelihood,
    viterbi_decode,
)
from .mining import (
    MiningConfig,
    PatternCluster,
    build_cluster_candidates,
    count_token_frequencies,
    find_frequent_tokens,
    mine_clusters,
    select_clusters,
)
from .parsing import KpiTable, ParsingPattern, parse_corpus, parse_event
from .pipeline import TrainingError, parse_records, preprocess_corpus, train
from .preprocess import (
    DEFAULT_STOPWORDS,
    EventRecord,
    TokenSequence,
    normalize_number,
    preprocess_event,
    stem,
    tokenize,
)

__version__ = "0.1.0"
