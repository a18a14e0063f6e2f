import json
import pickle
import struct

import numpy as np
import pytest

from clonecat import train
from clonecat.cli import run
from clonecat.embed import EmbedConfig, load_table, train_word2vec
from clonecat.errors import NumericFailure
from clonecat.lexcat import tokenize

ADD1 = "int add(int a, int b) { int s = a + b; return s; }"
ADD2 = "int add(int a, int b) {\n  // sum\n  int s = a + b;\n  return s;\n}"
ADD3 = "int add(int x, int y) { int t = x + y; return t; }"
LOOP1 = "int count(int n) { int c = 0; while (n > 0) { c++; n--; } return c; }"
LOOP2 = "int count(int n) { /*loop*/ int c = 0; while (n > 0) { c++; n--; } return c; }"
STR1 = 'String tag() { return "tag"; }'

PAIRS_CSV = """id1,id2,label
add1,add2,1,T1
add1,add3,1,T2
add2,add3,1,T2
loop1,loop2,1,T1
add1,loop1,0
add2,loop2,0
add3,str1,0
loop1,str1,0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    funcs = root / "funcs"
    funcs.mkdir()
    for name, src in [
        ("add1", ADD1), ("add2", ADD2), ("add3", ADD3),
        ("loop1", LOOP1), ("loop2", LOOP2), ("str1", STR1),
    ]:
        (funcs / f"{name}.java").write_text(src)
    (root / "pairs.csv").write_text(PAIRS_CSV)
    (root / "fast.cfg").write_text("# fast settings\nepochs = 1\n")
    (root / "weights.txt").write_text(
        "0 0 0 0 0 0 0.05 0.6 0 0 0.15 0.05 0 0.15 0\n"
    )
    return root


@pytest.fixture(scope="module")
def trained(workspace, capsys_factory=None):
    """Run the training half of the pipeline once: embeddings, params, head."""
    emb = workspace / "emb.bin"
    enc = workspace / "enc.bin"
    enc2 = workspace / "enc2.bin"
    head = workspace / "head.npz"
    loss = workspace / "loss.csv"
    assert run([
        "embed-train", "--functions", str(workspace / "funcs"),
        "--out", str(emb), "--epochs", "2", "--seed", "0",
    ]) == 0
    assert run([
        "pretrain", "--functions", str(workspace / "funcs"),
        "--pairs", str(workspace / "pairs.csv"),
        "--embeddings", str(emb), "--out", str(enc),
        "--epochs", "1", "--loss-log", str(loss),
    ]) == 0
    assert run([
        "finetune", "--functions", str(workspace / "funcs"),
        "--pairs", str(workspace / "pairs.csv"),
        "--embeddings", str(emb), "--params", str(enc),
        "--out-params", str(enc2), "--out-head", str(head),
        "--epochs", "1", "--layers", "1",
    ]) == 0
    return {"emb": emb, "enc": enc, "enc2": enc2, "head": head, "loss": loss}


class TestBasics:
    def test_version_names_both_formats(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "CCEMB1" in out and "CCENC1" in out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["tokenize", "--bogus"]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["transmogrify"]) == 1

    def test_tokenize_emits_json_lines(self, workspace, capsys):
        assert run(["tokenize", "--functions", str(workspace / "funcs")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["source_id"] == "add1"
        assert "BasicType" in first["categories"]
        assert first["total_tokens"] > 0

    def test_tokenize_single_file(self, workspace, capsys):
        assert run(["tokenize", "--in", str(workspace / "funcs" / "str1.java")]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["source_id"] == "str1"
        assert "Null" in record["categories"]

    def test_no_input_is_usage_error(self, capsys):
        assert run(["tokenize"]) == 1

    def test_lex_error_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.java"
        bad.write_text("int x = 08;")
        assert run(["tokenize", "--in", str(bad)]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_model_file_exit_2_names_path(self, workspace, capsys):
        missing = workspace / "absent.bin"
        code = run([
            "encode", "--functions", str(workspace / "funcs"),
            "--embeddings", str(missing), "--params", str(missing),
        ])
        assert code == 2
        assert str(missing) in capsys.readouterr().err


class TestTrainingCommands:
    def test_embeddings_file_written(self, trained):
        assert trained["emb"].read_bytes()[:6] == b"CCEMB1"
        table = load_table(trained["emb"])
        assert table.dim == 100

    def test_flag_overrides_config_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("epochs = 5\n")
        out = tmp_path / "emb1.bin"
        assert run([
            "embed-train", "--functions", str(workspace / "funcs"),
            "--out", str(out), "--config", str(cfg),
            "--epochs", "1", "--seed", "0",
        ]) == 0
        capsys.readouterr()
        sources = sorted((workspace / "funcs").glob("*.java"))
        streams = [tokenize(p.read_text(), source_id=p.stem) for p in sources]
        direct = train_word2vec(streams, EmbedConfig(epochs=1, seed=0))
        assert np.array_equal(load_table(out).matrix, direct.matrix)

    def test_config_file_applies_without_flag(self, workspace, tmp_path, capsys):
        out = tmp_path / "emb2.bin"
        assert run([
            "embed-train", "--functions", str(workspace / "funcs"),
            "--out", str(out), "--config", str(workspace / "fast.cfg"),
            "--seed", "0",
        ]) == 0
        capsys.readouterr()
        sources = sorted((workspace / "funcs").glob("*.java"))
        streams = [tokenize(p.read_text(), source_id=p.stem) for p in sources]
        direct = train_word2vec(streams, EmbedConfig(epochs=1, seed=0))
        assert np.array_equal(load_table(out).matrix, direct.matrix)

    def test_pretrain_outputs(self, trained, capsys):
        assert trained["enc"].read_bytes()[:6] == b"CCENC1"
        lines = trained["loss"].read_text().strip().splitlines()
        assert lines[0] == "epoch,batch,loss"
        assert len(lines) >= 2

    def test_batch_size_sets_p_times_k(self, workspace, trained, tmp_path, monkeypatch, capsys):
        # three clone classes, so P = batch_size // K is not capped at the class count
        pairs = tmp_path / "three_classes.csv"
        pairs.write_text("add1,add2,1\nadd3,str1,1\nloop1,loop2,1\n")
        sizes = []
        sample_batches = train.sample_batches

        def recording(classes, config, rng):
            batches = sample_batches(classes, config, rng)
            sizes.extend(len(batch) for batch in batches)
            return batches

        monkeypatch.setattr(train, "sample_batches", recording)
        written = []
        for extra in ([], ["--batch-size", "8"]):
            out = tmp_path / f"enc{len(written)}.bin"
            assert run([
                "pretrain", "--functions", str(workspace / "funcs"), "--pairs", str(pairs),
                "--embeddings", str(trained["emb"]), "--out", str(out), "--epochs", "1",
                *extra,
            ]) == 0
            written.append(out.read_bytes())
        assert sizes == [3 * 4, 2 * 4]  # default 64 // 4 = 16 classes, capped at 3
        assert written[0] != written[1]

    def test_finetune_outputs(self, trained):
        assert trained["enc2"].read_bytes()[:6] == b"CCENC1"
        with np.load(trained["head"]) as head_data:
            assert int(head_data["k"]) == 1
            assert head_data["l0.w"].shape == (200, 2)


class TestInferenceCommands:
    def test_encode_emits_100d_vectors(self, workspace, trained, capsys):
        assert run([
            "encode", "--functions", str(workspace / "funcs"),
            "--embeddings", str(trained["emb"]), "--params", str(trained["enc"]),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["source_id"] == "add1"
        assert len(first["vector"]) == 100

    def test_detect_cosine(self, workspace, trained, capsys):
        assert run([
            "detect", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--embeddings", str(trained["emb"]), "--params", str(trained["enc"]),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        verdicts = [json.loads(l) for l in lines]
        assert len(verdicts) == 8
        by_pair = {(v["id1"], v["id2"]): v for v in verdicts}
        t1 = by_pair[("add1", "add2")]
        assert t1["score"] == 1.0 and t1["is_clone"] is True
        assert all(v["detector"] == "cosine" for v in verdicts)

    def test_detect_classifier_needs_head(self, workspace, trained, capsys):
        code = run([
            "detect", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--embeddings", str(trained["emb"]), "--params", str(trained["enc"]),
            "--detector", "classifier",
        ])
        assert code == 1
        assert "--head" in capsys.readouterr().err

    def test_detect_classifier_with_head(self, workspace, trained, capsys):
        assert run([
            "detect", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--embeddings", str(trained["emb"]), "--params", str(trained["enc2"]),
            "--detector", "classifier", "--head", str(trained["head"]),
        ]) == 0
        verdicts = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert all(v["detector"] == "classifier" for v in verdicts)
        assert all(0.0 <= v["score"] <= 1.0 for v in verdicts)

    def test_baseline_overlap(self, workspace, capsys):
        assert run([
            "baseline", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
        ]) == 0
        verdicts = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        by_pair = {(v["id1"], v["id2"]): v for v in verdicts}
        assert by_pair[("add1", "add2")]["score"] == 1.0
        assert all(v["detector"] == "overlap" for v in verdicts)

    def test_baseline_weighted(self, workspace, capsys):
        assert run([
            "baseline", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--detector", "weighted", "--weights", str(workspace / "weights.txt"),
        ]) == 0
        verdicts = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert all(v["detector"] == "category_overlap" for v in verdicts)

    def test_baseline_weighted_needs_weights(self, workspace, capsys):
        code = run([
            "baseline", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"), "--detector", "weighted",
        ])
        assert code == 1

    def test_explain_json_stdout_table_stderr(self, workspace, trained, capsys):
        assert run([
            "explain", "--in", str(workspace / "funcs" / "add1.java"),
            "--embeddings", str(trained["emb"]), "--params", str(trained["enc"]),
        ]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out.strip())
        assert record["source_id"] == "add1"
        assert len(record["weights"]) == 15
        assert sum(record["weights"].values()) == pytest.approx(1.0, abs=1e-6)
        assert "Identifier" in captured.err

    def test_evaluate_writes_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run([
            "evaluate", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--detector", "overlap", "--no-train-encoder",
            "--folds", "2", "--out", str(out),
        ]) == 0
        stdout_report = json.loads(capsys.readouterr().out.strip())
        file_report = json.loads(out.read_text())
        assert stdout_report == file_report
        assert "overall" in file_report and len(file_report["folds"]) == 2

    def test_evaluate_cosine_with_fast_config(self, workspace, capsys):
        assert run([
            "evaluate", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--detector", "cosine", "--config", str(workspace / "fast.cfg"),
            "--folds", "2", "--seed", "0",
        ]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert 0.0 <= report["overall"]["f1"] <= 1.0

    def test_evaluate_zero_denominator_is_one_plain_note(self, workspace, capsys):
        """An impossible threshold predicts nothing: one stderr note per zero
        denominator, naming no source file, and stdout stays the report."""
        assert run([
            "evaluate", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--detector", "overlap", "--threshold", "1.0", "--folds", "2",
        ]) == 0
        captured = capsys.readouterr()
        folds = json.loads(captured.out.strip())["folds"]
        expected = sum((f["tp"] + f["fp"] == 0) + (f["tp"] + f["fn"] == 0)
                       + (f["precision"] + f["recall"] == 0) for f in folds)
        lines = captured.err.splitlines()
        assert expected >= 2 and len(lines) == expected
        assert all(line.startswith("note: ") and "denominator is zero" in line for line in lines)
        assert ".py" not in captured.err

    def test_bench_time(self, workspace, capsys):
        assert run([
            "bench-time", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--detector", "overlap", "--runs", "2",
        ]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert len(report["runs"]) == 2
        assert report["mean_s"] >= 0.0


class TestNumericFailureExit:
    def test_pretrain_numeric_failure_maps_to_3(self, workspace, trained,
                                                monkeypatch, tmp_path, capsys):
        def explode(*args, **kwargs):
            raise NumericFailure("non-finite gradient; step rejected")

        monkeypatch.setattr("clonecat.cli.pretrain", explode)
        code = run([
            "pretrain", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--embeddings", str(trained["emb"]),
            "--out", str(tmp_path / "enc.bin"),
        ])
        assert code == 3
        assert "numeric" in capsys.readouterr().err.lower()


def _raw_table(tokens, bad_value=None):
    """CCEMB1 bytes written without EmbeddingTable's checks."""
    matrix = np.zeros((len(tokens), 100), dtype="<f4")
    if bad_value is not None:
        matrix[1, 0] = bad_value
    head = b"CCEMB1" + struct.pack("<II", len(tokens), 100)
    body = b"".join(struct.pack("<I", len(t)) + t for t in tokens)
    return head + body + matrix.tobytes()


def _encode_with_table(data):
    def build(workspace, trained, tmp_path):
        (tmp_path / "emb.bin").write_bytes(data)
        return ["encode", "--functions", str(workspace / "funcs"),
                "--embeddings", str(tmp_path / "emb.bin"), "--params", str(trained["enc"])]
    return build


def _non_utf8_java(workspace, trained, tmp_path):
    (tmp_path / "latin1.java").write_bytes("int caf\xe9() { return 1; }".encode("latin-1"))
    return ["tokenize", "--in", str(tmp_path / "latin1.java")]


def _non_utf8_in_functions(workspace, trained, tmp_path):
    _non_utf8_java(workspace, trained, tmp_path)
    return ["embed-train", "--functions", str(tmp_path), "--out", str(tmp_path / "e.bin")]


def _pretrain_argv(workspace, trained, tmp_path, functions, *extra):
    return ["pretrain", "--functions", str(functions), "--pairs", str(workspace / "pairs.csv"),
            "--embeddings", str(trained["emb"]), "--out", str(tmp_path / "enc.bin"), *extra]


def _non_utf8_pretrain(workspace, trained, tmp_path):
    _non_utf8_java(workspace, trained, tmp_path)
    return _pretrain_argv(workspace, trained, tmp_path, tmp_path)


def _unknown_config_key(workspace, trained, tmp_path):
    (tmp_path / "bad.cfg").write_text("# typo for epochs\nepoch = 1\n")
    return ["embed-train", "--functions", str(workspace / "funcs"),
            "--out", str(tmp_path / "e.bin"), "--config", str(tmp_path / "bad.cfg")]


def _non_utf8_pairs(workspace, trained, tmp_path):
    (tmp_path / "latin1.csv").write_bytes("add1,add2 # caf\xe9\n".encode("latin-1"))
    return ["baseline", "--functions", str(workspace / "funcs"),
            "--pairs", str(tmp_path / "latin1.csv")]


def _config_batch_size_in_evaluate(workspace, trained, tmp_path):
    (tmp_path / "p6.cfg").write_text("epochs = 1\nbatch_size = 6\n")
    return ["evaluate", "--functions", str(workspace / "funcs"), "--folds", "2",
            "--pairs", str(workspace / "pairs.csv"), "--config", str(tmp_path / "p6.cfg")]


def _detect_bad_label(workspace, trained, tmp_path):
    (tmp_path / "yes.csv").write_text("add1,add2,yes\n")
    return ["detect", "--functions", str(workspace / "funcs"), "--pairs",
            str(tmp_path / "yes.csv"), "--embeddings", str(trained["emb"]),
            "--params", str(trained["enc"])]


def _bad_weights(data, command="baseline"):
    def build(workspace, trained, tmp_path):
        (tmp_path / "w.txt").write_bytes(data)
        argv = [command, "--functions", str(workspace / "funcs"), "--pairs",
                str(workspace / "pairs.csv"), "--detector", "weighted",
                "--weights", str(tmp_path / "w.txt")]
        return argv + ["--folds", "2"] if command == "evaluate" else argv
    return build


def _with_nan_params(command):
    """``command`` over a CCENC1 file whose last tensor (type.be2) ends in NaN."""
    def build(workspace, trained, tmp_path):
        data = trained["enc"].read_bytes()
        (tmp_path / "enc_nan.bin").write_bytes(data[:-4] + struct.pack("<f", np.nan))
        argv = [command, "--functions", str(workspace / "funcs"),
                "--embeddings", str(trained["emb"]), "--params", str(tmp_path / "enc_nan.bin")]
        return argv + ["--pairs", str(workspace / "pairs.csv")] if command == "detect" else argv
    return build


def _with_threshold_nan(command):
    def build(workspace, trained, tmp_path):
        argv = [command, "--functions", str(workspace / "funcs"),
                "--pairs", str(workspace / "pairs.csv"), "--threshold", "nan"]
        if command == "detect":
            argv += ["--embeddings", str(trained["emb"]), "--params", str(trained["enc"])]
        return argv
    return build


def _finetune_argv(workspace, trained, tmp_path, *extra):
    return ["finetune", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"), "--embeddings", str(trained["emb"]),
            "--params", str(trained["enc"]), "--out-params", str(tmp_path / "enc2.bin"),
            "--out-head", str(tmp_path / "head.npz"), "--layers", "1", *extra]


def _classify_with_head(write):
    def build(workspace, trained, tmp_path):
        write(tmp_path / "head.npz")
        return ["detect", "--functions", str(workspace / "funcs"),
                "--pairs", str(workspace / "pairs.csv"), "--embeddings", str(trained["emb"]),
                "--params", str(trained["enc2"]), "--detector", "classifier",
                "--head", str(tmp_path / "head.npz")]
    return build


def _npz(**arrays):
    return lambda path: np.savez(path, **arrays)


def _npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.zeros((200, 2)))


_W, _B = {"l0.w": np.zeros((200, 2))}, {"l0.b": np.zeros(2)}


@pytest.mark.parametrize(
    "build, code, message",
    [
        (lambda w, t, p: ["tokenize", "--functions", str(p / "absent")], 2, "absent"),
        (_non_utf8_java, 2, "latin1.java"),
        (_non_utf8_in_functions, 2, "latin1.java"),
        (lambda w, t, p: ["embed-train", "--functions", str(w / "funcs"),
                          "--out", str(p / "e.bin"), "--lr", "1e6"], 3, "epoch"),
        (_encode_with_table(_raw_table([b"<unk>", b"int"], np.nan)), 2, "emb.bin"),
        (_encode_with_table(_raw_table([b"<unk>", b"int", b"int"])), 2, "duplicate"),
        (_encode_with_table(_raw_table([b"int", b"<unk>"])), 2, "<unk>"),
        (_non_utf8_pretrain, 2, "latin1.java"),
        (lambda w, t, p: _pretrain_argv(w, t, p, p / "absent"), 2, "absent"),
        (lambda w, t, p: ["tokenize", "--functions", str(p)], 2, "no .java files"),
        (lambda w, t, p: ["tokenize", "--functions", str(w / "funcs"),
                          "--in", str(w / "funcs" / "add1.java")], 2, "given twice"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--batch-size", "6"),
         1, "samples_per_class"),
        (_unknown_config_key, 1, "bad.cfg:2"),
        (_config_batch_size_in_evaluate, 1, "samples_per_class"),
        (_non_utf8_pairs, 2, "latin1.csv"),
        (_detect_bad_label, 2, "label must be 0 or 1"),
        (_classify_with_head(lambda path: path.write_bytes(b"not a head")), 2, "head.npz"),
        (_classify_with_head(lambda path: path.write_bytes(pickle.dumps({"k": 1}))),
         2, "head.npz"),
        (_classify_with_head(_npy), 2, "single array"),
        (_classify_with_head(_npz(**_W, **_B)), 2, "missing an entry"),
        (_classify_with_head(_npz(k=np.array(1), **_B)), 2, "missing an entry"),
        (_classify_with_head(_npz(k=np.array(2), **_W, **_B)), 2, "k = 2"),
        (_classify_with_head(_npz(k=np.array(1), **{"l0.w": np.zeros((200, 3)),
                                                    "l0.b": np.zeros(3)})), 2, "shapes"),
        (_classify_with_head(_npz(k=np.array(1), **_W, **{"l0.b": np.array([np.nan, 0.0])})),
         2, "non-finite"),
        (_bad_weights(b"abc" + b" 0" * 14), 2, "w.txt"),
        (_bad_weights(b"1 " * 14, "evaluate"), 2, "w.txt"),
        (_bad_weights(b"-1" + b" 0" * 14, "bench-time"), 2, "w.txt"),
        (_bad_weights(b"nan" + b" 0" * 14, "evaluate"), 2, "w.txt"),
        (_bad_weights("caf\xe9".encode("latin-1") + b" 0" * 15, "bench-time"), 2, "w.txt"),
        (_with_nan_params("detect"), 2, "type.be2 of parameter file"),
        (_with_nan_params("encode"), 2, "enc_nan.bin"),
        (_with_threshold_nan("detect"), 1, "threshold must be finite"),
        (_with_threshold_nan("baseline"), 1, "threshold must be finite"),
        (lambda w, t, p: ["detect", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--embeddings", str(t["emb"]),
                          "--params", str(t["enc2"]), "--detector", "classifier",
                          "--head", str(t["head"]), "--threshold", "nan"],
         1, "--threshold is for the cosine detector"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--epochs", "1", "--lr", "nan"),
         1, "lr must be finite"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--epochs", "-1"),
         1, "epochs must be >= 0"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--epochs", "-1"), 1, "epochs must be >= 0"),
    ],
    ids=["missing-functions-dir", "non-utf8-in", "non-utf8-functions",
         "sgns-diverges", "table-non-finite", "table-duplicate-token",
         "table-unk-not-first", "pretrain-non-utf8", "pretrain-missing-functions-dir",
         "empty-functions-dir", "id-in-functions-and-in", "batch-size-not-multiple-of-k",
         "config-unknown-key", "evaluate-config-batch-size", "pairs-non-utf8",
         "detect-bad-label", "head-not-npz", "head-pickled", "head-npy", "head-missing-k",
         "head-missing-layer", "head-k-not-a-depth", "head-wrong-shape", "head-non-finite",
         "weights-not-a-number", "weights-wrong-count", "weights-negative", "weights-nan",
         "weights-non-utf8", "params-non-finite-detect", "params-non-finite-encode",
         "threshold-nan-detect", "threshold-nan-baseline", "threshold-with-classifier",
         "finetune-lr-nan",
         "pretrain-epochs-negative", "finetune-epochs-negative"],
)
def test_bad_input_exit_codes(workspace, trained, tmp_path, capsys, build, code, message):
    assert run(build(workspace, trained, tmp_path)) == code
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1  # one clean line, no traceback
