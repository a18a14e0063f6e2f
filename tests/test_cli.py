import json
import struct

import numpy as np
import pytest

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
    ],
    ids=["missing-functions-dir", "non-utf8-in", "non-utf8-functions",
         "sgns-diverges", "table-non-finite", "table-duplicate-token",
         "table-unk-not-first"],
)
def test_bad_input_exit_codes(workspace, trained, tmp_path, capsys, build, code, message):
    assert run(build(workspace, trained, tmp_path)) == code
    assert message in capsys.readouterr().err
