import bisect
import math
import struct

import numpy as np
import pytest

from clonecat import embed
from clonecat.embed import (
    _STEP_CENTERS,
    EMBED_DIM,
    UNK_TOKEN,
    EmbedConfig,
    Vocabulary,
    build_vocab,
    load_table,
    lookup,
    save_table,
    token_cosine,
    train_word2vec,
)
from clonecat.errors import EmptyCorpus, FormatError, NumericFailure
from clonecat.lexcat import tokenize

CORPUS_SOURCES = [
    "int a = 1; int b = a + a;",
    "long a = 2; while (a > 0) a--; return a;",
    "int sum = 0; for (int i = 0; i < n; i++) sum += i;",
]


def make_corpus():
    return [tokenize(s, source_id=f"m{i}") for i, s in enumerate(CORPUS_SOURCES)]


class TestVocabulary:
    def test_unk_reserved_at_zero(self):
        vocab = build_vocab(make_corpus())
        assert vocab.unk_id == 0
        assert vocab.tokens[0] == UNK_TOKEN
        assert vocab.id_for("never-seen-token") == 0

    def test_rejects_missing_unk(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b"], [1, 1])

    def test_frequency_descending_with_lexeme_tiebreak(self):
        vocab = build_vocab(make_corpus())
        body = list(zip(vocab.tokens[1:], vocab.freqs[1:]))
        keys = [(-f, t) for t, f in body]
        assert keys == sorted(keys)

    def test_deterministic(self):
        v1 = build_vocab(make_corpus())
        v2 = build_vocab(make_corpus())
        assert v1 == v2 and v1.freqs == v2.freqs

    def test_min_count_folds_rare_tokens_into_unk(self):
        vocab = build_vocab(make_corpus(), min_count=3)
        assert all(f >= 3 for f in vocab.freqs[1:])
        rare_total = sum(
            1
            for stream in make_corpus()
            for t in stream.tokens
            if vocab.id_for(t.lexeme) == 0
        )
        assert vocab.freqs[0] == rare_total

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([])
        with pytest.raises(EmptyCorpus):
            build_vocab([tokenize("", "e")])


class TestEmbedConfig:
    def test_defaults(self):
        cfg = EmbedConfig()
        assert (cfg.window, cfg.negatives, cfg.epochs) == (5, 5, 5)
        assert cfg.lr == pytest.approx(0.025)
        assert cfg.min_count == 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"window": 0}, {"negatives": -1}, {"epochs": 0}, {"lr": 0.0},
         {"min_count": 0}],
    )
    def test_validate_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EmbedConfig(**kwargs).validate()


class TestTraining:
    def test_matrix_shape_and_dtype(self):
        table = train_word2vec(make_corpus(), EmbedConfig(epochs=1))
        assert table.matrix.shape == (len(table.vocab), EMBED_DIM)
        assert table.matrix.dtype == np.float32
        assert np.isfinite(table.matrix).all()

    def test_same_seed_bit_exact(self):
        t1 = train_word2vec(make_corpus(), EmbedConfig(epochs=2, seed=7))
        t2 = train_word2vec(make_corpus(), EmbedConfig(epochs=2, seed=7))
        assert t1.vocab == t2.vocab
        assert np.array_equal(t1.matrix, t2.matrix)

    def test_different_seed_differs(self):
        t1 = train_word2vec(make_corpus(), EmbedConfig(epochs=1, seed=0))
        t2 = train_word2vec(make_corpus(), EmbedConfig(epochs=1, seed=1))
        assert not np.array_equal(t1.matrix, t2.matrix)

    def test_training_moves_vectors(self):
        table = train_word2vec(make_corpus(), EmbedConfig(epochs=5, seed=0))
        # Initialization is uniform in (-0.5/dim, 0.5/dim); several epochs of
        # updates should push at least some coordinates past that envelope.
        assert np.abs(table.matrix[1:]).max() > 0.5 / EMBED_DIM

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            train_word2vec([], EmbedConfig())


def sgns_oracle(id_sentences, cumdist, config, chunk_tokens):
    """Plain-float restatement of the batched SGNS trainer.

    Sentences are taken in order in groups that close once they hold
    chunk_tokens tokens. Replays train_word2vec's draw order: the init
    table, then per group all window shrinks and then one row of negative
    draws per pair. Every pair of a run of _STEP_CENTERS center positions of
    one sentence reads the tables as they were before the run; the updates
    are summed per row and applied after.
    """
    rng = np.random.default_rng(config.seed)
    vsize = len(cumdist)
    cumdist = cumdist.tolist()
    syn0 = ((rng.random((vsize, EMBED_DIM)) - 0.5) / EMBED_DIM).tolist()
    syn1 = [[0.0] * EMBED_DIM for _ in range(vsize)]
    groups, group = [], []
    for ids in id_sentences:
        group.append(ids)
        if sum(map(len, group)) >= chunk_tokens:
            groups.append(group)
            group = []
    groups += [group] if group else []
    planned = config.epochs * sum(len(ids) for ids in id_sentences)
    processed = 0
    for _ in range(config.epochs):
        for group in groups:
            tokens = [(ids, pos) for ids in group for pos in range(len(ids))]
            shrinks = rng.integers(1, config.window + 1, size=len(tokens)).tolist()
            pairs = []  # (sentence, center position, context position, alpha)
            for i, ((ids, pos), shrink) in enumerate(zip(tokens, shrinks)):
                alpha = config.lr * max(1e-4, 1.0 - (processed + i) / planned)
                for cpos in range(max(0, pos - shrink), min(len(ids), pos + shrink + 1)):
                    if cpos != pos:
                        pairs.append((ids, pos, cpos, alpha))
            draws = rng.random((len(pairs), config.negatives)).tolist()
            processed += len(tokens)
            steps = {}
            for pair, row_draws in zip(pairs, draws):
                key = (id(pair[0]), pair[1] // _STEP_CENTERS)
                steps.setdefault(key, []).append((pair, row_draws))
            for step in steps.values():
                d0, d1 = {}, {}
                for (ids, pos, cpos, alpha), row_draws in step:
                    center, context = ids[pos], ids[cpos]
                    targets = [(context, 1.0)]
                    for u in row_draws:
                        t = bisect.bisect_right(cumdist, u)
                        targets.append(((t + 1) % vsize if t == context else t, 0.0))
                    for t, label in targets:
                        score = sum(a * b for a, b in zip(syn0[center], syn1[t]))
                        g = (label - 1.0 / (1.0 + math.exp(-score))) * alpha
                        acc0 = d0.setdefault(center, [0.0] * EMBED_DIM)
                        acc1 = d1.setdefault(t, [0.0] * EMBED_DIM)
                        for d in range(EMBED_DIM):
                            acc0[d] += g * syn1[t][d]
                            acc1[d] += g * syn0[center][d]
                for table, deltas in ((syn0, d0), (syn1, d1)):
                    for row, delta in deltas.items():
                        table[row] = [a + b for a, b in zip(table[row], delta)]
    return np.array(syn0)


class TestSgnsOracle:
    @pytest.mark.parametrize("chunk_tokens", [embed._CHUNK_TOKENS, 20])
    def test_batched_step_matches_plain_python(self, monkeypatch, chunk_tokens):
        monkeypatch.setattr(embed, "_CHUNK_TOKENS", chunk_tokens)
        corpus = make_corpus() + [tokenize(
            "int t = 0; for (int i = 0; i < n; i++) { t += a[i] * a[i]; t -= i; } return t;",
            source_id="long"), tokenize("return", source_id="one-token")]
        config = EmbedConfig(epochs=2, window=3, negatives=4, lr=0.05, seed=5)
        vocab = build_vocab(corpus)
        ids = [np.array([vocab.id_for(t) for t in ts.lexemes()]) for ts in corpus]
        assert max(len(s) for s in ids) > 2 * _STEP_CENTERS
        syn0 = embed._train_syn0(ids, embed._noise_cumdist(vocab), config)
        expected = sgns_oracle([s.tolist() for s in ids], embed._noise_cumdist(vocab), config,
                               chunk_tokens)
        np.testing.assert_allclose(syn0, expected, rtol=0, atol=1e-12)
        assert np.array_equal(train_word2vec(corpus, config).matrix, syn0.astype(np.float32))

    def test_long_methods_stay_finite(self):
        body = "int s{i} = a[{i}] * b + c; if (s{i} > m) {{ m = s{i}; }} "
        corpus = [
            tokenize("".join(body.format(i=(i * 7 + m) % 40) for i in range(60)),
                     source_id=f"long{m}")
            for m in range(20)
        ]
        assert min(len(ts.tokens) for ts in corpus) >= 1000
        table = train_word2vec(corpus, EmbedConfig(epochs=5, seed=0))
        assert np.isfinite(table.matrix).all()

    def test_divergence_raises_numeric_failure_naming_epoch(self):
        with pytest.raises(NumericFailure, match="epoch"):
            train_word2vec(make_corpus(), EmbedConfig(lr=1e6))


class TestLookup:
    def test_known_token_returns_its_row(self, small_table):
        idx = small_table.vocab.id_for("int")
        assert idx != 0
        assert np.array_equal(lookup(small_table, "int"), small_table.matrix[idx])

    def test_unknown_token_returns_unk_row(self, small_table):
        assert np.array_equal(
            lookup(small_table, "no-such-lexeme"), small_table.matrix[0]
        )

    def test_table_lookup_method_agrees(self, small_table):
        assert np.array_equal(
            small_table.lookup("int"), lookup(small_table, "int")
        )


class TestTokenCosine:
    def test_self_similarity_is_one(self, small_table):
        assert token_cosine(small_table, "int", "int") == pytest.approx(1.0)

    def test_symmetry(self, small_table):
        ab = token_cosine(small_table, "int", ";")
        ba = token_cosine(small_table, ";", "int")
        assert ab == pytest.approx(ba)

    def test_range(self, small_table):
        s = token_cosine(small_table, "int", "=")
        assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9

    def test_zero_norm_returns_zero(self, small_table):
        zeroed = type(small_table)(small_table.vocab, small_table.matrix.copy())
        zeroed.matrix[zeroed.vocab.id_for("int")] = 0.0
        assert token_cosine(zeroed, "int", ";") == 0.0


class TestSerialization:
    def test_round_trip_bit_exact(self, small_table, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(small_table, path)
        loaded = load_table(path)
        assert loaded.vocab == small_table.vocab
        assert np.array_equal(loaded.matrix, small_table.matrix)
        assert loaded.matrix.dtype == np.float32

    def test_magic_prefix(self, small_table, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(small_table, path)
        assert path.read_bytes()[:6] == b"CCEMB1"

    def test_save_method_agrees_with_function(self, small_table, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_table(small_table, p1)
        small_table.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, small_table, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(small_table, path)
        raw = bytearray(path.read_bytes())
        raw[:6] = b"NOTME1"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_table(path)

    def test_truncated_file_rejected(self, small_table, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(small_table, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(FormatError):
            load_table(path)

    def test_trailing_garbage_rejected(self, small_table, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(small_table, path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(FormatError):
            load_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_table(path)


def write_raw_table(path, tokens, matrix):
    """A CCEMB1 file written without EmbeddingTable's checks."""
    with open(path, "wb") as fh:
        fh.write(b"CCEMB1" + struct.pack("<II", len(tokens), EMBED_DIM))
        for raw in tokens:
            fh.write(struct.pack("<I", len(raw)) + raw)
        fh.write(np.asarray(matrix, dtype="<f4").tobytes())


@pytest.mark.parametrize(
    "tokens, bad_value",
    [
        ([b"<unk>", b"int"], np.nan),
        ([b"<unk>", b"int"], np.inf),
        ([b"<unk>", b"int", b"int"], None),
        ([b"int", b"<unk>"], None),
        ([b"<unk>", b"\xff\xfe"], None),
    ],
    ids=["nan", "inf", "duplicate", "unk-not-first", "bad-utf8"],
)
def test_malformed_table_is_format_error(tmp_path, tokens, bad_value):
    matrix = np.zeros((len(tokens), EMBED_DIM))
    if bad_value is not None:
        matrix[1, 3] = bad_value
    path = tmp_path / "emb.bin"
    write_raw_table(path, tokens, matrix)
    with pytest.raises(FormatError, match="emb.bin"):
        load_table(path)
