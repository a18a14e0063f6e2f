"""Token-category attention encoder for code clone detection."""

__version__ = "0.1.0"

from .lexcat import (  # noqa: F401
    NUM_CATEGORIES,
    CategorizedMethod,
    Token,
    TokenCategory,
    TokenStream,
    categorize,
    categorize_source,
    category_order,
    tokenize,
)
from .data import CloneType, Pair, PairDataset  # noqa: F401
from .embed import (  # noqa: F401
    EmbedConfig,
    EmbeddingTable,
    load_table,
    save_table,
    train_word2vec,
)
from .encoder import (  # noqa: F401
    AttentionTrace,
    EncoderParams,
    MethodVector,
    encode_method,
    init_params,
    load_params,
    save_params,
)
from .train import (  # noqa: F401
    FineTuneConfig,
    FineTuneHead,
    PretrainConfig,
    finetune,
    init_head,
    pretrain,
    rmsprop_step,
    supcon_loss,
)
from .detect import (  # noqa: F401
    CategoryWeights,
    CloneVerdict,
    category_overlap_similarity,
    cosine_similarity,
    detect_corpus,
    overlap_similarity,
    weighted_category_similarity,
)
from .explain import ExplainReport, category_weights  # noqa: F401
from .bench import (  # noqa: F401
    FoldPlan,
    MetricsReport,
    PipelineConfig,
    evaluate,
    load_dataset,
    make_folds,
    time_detection,
)
from .synth import SynthSpec, builtin_base_methods, synth_clones  # noqa: F401
