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
from .embed import (  # noqa: F401
    EmbedConfig,
    EmbeddingTable,
    Vocabulary,
    build_vocab,
    load_table,
    save_table,
    token_cosine,
    train_word2vec,
)
from .encoder import (  # noqa: F401
    AttentionTrace,
    EncoderParams,
    MethodVector,
    encode_category,
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
    grad_check,
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
    CloneType,
    FoldPlan,
    MetricsReport,
    Pair,
    PairDataset,
    PipelineConfig,
    SynthSpec,
    builtin_base_methods,
    evaluate,
    load_dataset,
    make_folds,
    synth_clones,
    time_detection,
)
