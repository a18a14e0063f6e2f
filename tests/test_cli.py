import argparse
import ast
import gc
import io
import json
import os
import pickle
import re
import shlex
import signal
import struct
import subprocess
import sys
import warnings
import zipfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clonecat import cli, encoder, train
from clonecat.data import load_methods, read_pairs
from clonecat.detect import classifier_score
from clonecat.cli import run
from clonecat.embed import EmbedConfig, load_table, train_word2vec
from clonecat.encoder import encode_method, load_params
from clonecat.errors import NumericFailure
from clonecat.explain import category_weights, format_weights_table
from clonecat.lexcat import tokenize
from clonecat.synth import builtin_base_methods

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

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_version_has_one_owner(self):
        """The installed metadata reads ``clonecat.__version__``, which --version prints."""
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "clonecat.__version__"}

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
    def test_embeddings_file_written(self, workspace, trained, tmp_path, capsys):
        assert trained["emb"].read_bytes()[:6] == b"CCEMB1"
        out = tmp_path / "emb.bin"
        assert run(["embed-train", "--functions", str(workspace / "funcs"),
                    "--out", str(out), "--epochs", "1"]) == 0
        printed = json.loads(capsys.readouterr().out)
        table = load_table(out)
        assert printed == {"out": str(out), "vocab": len(table.tokens), "dim": 100}
        assert table.matrix.shape == (len(table.tokens), 100)

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

    def test_out_head_writes_exactly_the_path_given(self, workspace, trained, tmp_path, capsys):
        """A head path without .npz is written as named, and detect reads it back."""
        argv = _finetune_argv(workspace, trained, tmp_path, "--epochs", "1",
                              "--out-head", str(tmp_path / "head.bin"))
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["out_head"] == str(tmp_path / "head.bin")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["enc2.bin", "head.bin"]
        assert (tmp_path / "head.bin").read_bytes() == trained["head"].read_bytes()
        verdicts = []
        for params, head in ((tmp_path / "enc2.bin", tmp_path / "head.bin"),
                             (trained["enc2"], trained["head"])):
            assert run(["detect", "--functions", str(workspace / "funcs"), "--pairs",
                        str(workspace / "pairs.csv"), "--embeddings", str(trained["emb"]),
                        "--params", str(params), "--detector", "classifier",
                        "--head", str(head)]) == 0
            verdicts.append(capsys.readouterr().out)
        assert verdicts[0] == verdicts[1]

    def test_finetune_may_overwrite_its_input_params(self, workspace, trained, tmp_path, capsys):
        """An output may name an input: the encoder file is updated in place."""
        enc = tmp_path / "enc.bin"
        enc.write_bytes(trained["enc"].read_bytes())
        argv = _finetune_argv(workspace, trained, tmp_path, "--epochs", "1",
                              "--params", str(enc), "--out-params", str(enc))
        assert run(argv) == 0
        capsys.readouterr()
        assert enc.read_bytes() == trained["enc2"].read_bytes()


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
        assert all(v["detector"] == "weighted" for v in verdicts)

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

    def test_encode_and_explain_print_one_method_encodes(self, workspace, trained, capsys):
        """Both commands encode all methods in one batch and print what one-method
        encodes give, in id order."""
        methods = load_methods(workspace / "funcs")
        table, params = load_table(trained["emb"]), load_params(trained["enc"])
        vector_lines, report_lines, tables = [], [], []
        for source_id in sorted(methods):
            mv, matrix = encode_method(methods[source_id], table, params)
            vector_lines.append(json.dumps(
                {"source_id": source_id, "vector": [float(x) for x in mv.vector]}))
            report = category_weights(matrix, source_id=source_id)
            report_lines.append(json.dumps(report.to_json_dict(), sort_keys=True))
            tables.append(format_weights_table(report))
        model = ["--functions", str(workspace / "funcs"),
                 "--embeddings", str(trained["emb"]), "--params", str(trained["enc"])]
        assert run(["encode", *model]) == 0
        assert capsys.readouterr().out == "\n".join(vector_lines) + "\n"
        assert run(["explain", *model]) == 0
        captured = capsys.readouterr()
        assert captured.out == "\n".join(report_lines) + "\n"
        assert captured.err == "\n".join(tables) + "\n"

    def test_encode_and_explain_encode_in_chunks(self, workspace, trained, monkeypatch,
                                                 capsys):
        """Both commands encode through the encoder's chunk loop, so no single
        encode_methods call holds the whole corpus; the output does not change."""
        model = ["--functions", str(workspace / "funcs"),
                 "--embeddings", str(trained["emb"]), "--params", str(trained["enc"])]
        whole = {}
        for command in ("encode", "explain"):
            assert run([command, *model]) == 0
            whole[command] = capsys.readouterr()
        batches = []
        encode_methods = encoder.encode_methods

        def recording(methods, *args, **kwargs):
            batches.append(len(methods))
            return encode_methods(methods, *args, **kwargs)

        monkeypatch.setattr(encoder, "_ENCODE_CHUNK", 2)
        monkeypatch.setattr(encoder, "encode_methods", recording)
        for command in ("encode", "explain"):
            batches.clear()
            assert run([command, *model]) == 0
            assert batches == [2, 2, 2]  # six methods
            assert capsys.readouterr() == whole[command]

    def test_detect_symmetrized_classifier(self, workspace, trained, capsys):
        """``--symmetrize`` prints each pair's mean head probability over both orders."""
        assert run([
            "detect", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--embeddings", str(trained["emb"]), "--params", str(trained["enc2"]),
            "--detector", "classifier", "--head", str(trained["head"]), "--symmetrize",
        ]) == 0
        methods = load_methods(workspace / "funcs")
        table, params = load_table(trained["emb"]), load_params(trained["enc2"])
        head = train.load_head(trained["head"])
        expected, plain = [], []
        for row in read_pairs(workspace / "pairs.csv"):
            v1 = encode_method(methods[row.id1], table, params)[0].vector
            v2 = encode_method(methods[row.id2], table, params)[0].vector
            score = classifier_score(v1, v2, head, symmetrize=True)
            plain.append(classifier_score(v1, v2, head))
            expected.append(json.dumps({"detector": "classifier", "id1": row.id1,
                                        "id2": row.id2, "is_clone": score > 0.5,
                                        "score": score}, sort_keys=True))
        assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert [json.loads(line)["score"] for line in expected] != plain

    def test_evaluate_writes_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run([
            "evaluate", "--functions", str(workspace / "funcs"),
            "--pairs", str(workspace / "pairs.csv"),
            "--detector", "overlap",
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

    def test_evaluate_config_seed_applies_and_flag_wins(self, workspace, tmp_path, capsys):
        (tmp_path / "seed5.cfg").write_text("seed = 5\n")

        def report(*extra):
            assert run(["evaluate", "--functions", str(workspace / "funcs"),
                        "--pairs", str(workspace / "pairs.csv"), "--detector", "overlap",
                        "--folds", "2", *extra]) == 0
            return capsys.readouterr().out

        from_file = report("--config", str(tmp_path / "seed5.cfg"))
        assert from_file == report("--seed", "5")
        assert from_file != report()
        assert report("--config", str(tmp_path / "seed5.cfg"), "--seed", "0") == report()

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

    def test_finetune_stops_at_the_step_beyond_float32(self, workspace, trained, tmp_path,
                                                       capsys):
        """A step that puts a parameter beyond float32's range ends the run there, in one
        line with exit 3, before either output is written."""
        argv = _finetune_argv(workspace, trained, tmp_path, "--epochs", "1", "--lr", "1e300")
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "RMSProp step made tensor" in err and "beyond float32's range; training stopped" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "enc2.bin").exists() and not (tmp_path / "head.npz").exists()


class TestOutOfMemoryExit:
    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 72.8 TiB"),
         "error: out of memory: Unable to allocate 72.8 TiB"),
        (MemoryError(), "error: out of memory"),
    ], ids=["with-message", "bare"])
    def test_memory_error_maps_to_2(self, workspace, monkeypatch, tmp_path, capsys, error, line):
        def exhaust(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "train_word2vec", exhaust)
        code = run(["embed-train", "--functions", str(workspace / "funcs"),
                    "--out", str(tmp_path / "e.bin")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_impossible_allocation_exits_2(self, workspace, tmp_path):
        """``--negatives 10**13`` asks for a 72.8 TiB array; a child whose address space is
        capped at 1 GiB is refused it at once, and reports one line, not a traceback."""
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run(
            [sys.executable, "-m", "clonecat.cli", "embed-train",
             "--functions", str(workspace / "funcs"), "--out", str(tmp_path / "e.bin"),
             "--epochs", "1", "--negatives", str(10**13)],
            env=_child_env(), capture_output=True, encoding="utf-8", timeout=120,
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory: Unable to allocate")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "e.bin").exists()


def _raw_table(tokens, bad_value=None):
    """CCEMB1 bytes written without EmbeddingTable's checks."""
    matrix = np.zeros((len(tokens), 100), dtype="<f4")
    if bad_value is not None:
        matrix[1, 0] = bad_value
    head = b"CCEMB1" + struct.pack("<II", len(tokens), 100)
    body = b"".join(struct.pack("<I", len(t)) + t for t in tokens)
    return head + body + matrix.tobytes()


def _encode_with_params(data):
    def build(workspace, trained, tmp_path):
        (tmp_path / "enc.bin").write_bytes(data)
        return ["encode", "--functions", str(workspace / "funcs"),
                "--embeddings", str(trained["emb"]), "--params", str(tmp_path / "enc.bin")]
    return build


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


def _with_nan_params(command, nan=struct.pack("<f", np.nan)):
    """``command`` over a CCENC1 file whose last tensor (type.be2) ends in ``nan``."""
    def build(workspace, trained, tmp_path):
        data = trained["enc"].read_bytes()
        (tmp_path / "enc_nan.bin").write_bytes(data[:-4] + nan)
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


# the classifier decides at 0.5 and refuses --threshold
_CLASSIFIER_THRESHOLD = ("threshold is for the cosine or overlap or weighted detector, "
                         "not classifier")


def _classifier_threshold(command):
    def build(workspace, trained, tmp_path):
        return [command, "--functions", str(workspace / "funcs"), "--pairs",
                str(workspace / "pairs.csv"), "--detector", "classifier", "--threshold", "nan"]
    return build


def _non_utf8_config(workspace, trained, tmp_path):
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\nepochs = 1\n".encode("latin-1"))
    return ["evaluate", "--functions", str(workspace / "funcs"), "--folds", "2",
            "--pairs", str(workspace / "pairs.csv"), "--config", str(tmp_path / "latin1.cfg")]


def _a_dir(tmp_path):
    """A directory given where a file is expected."""
    (tmp_path / "a_dir").mkdir()
    return str(tmp_path / "a_dir")


def _evaluate_folds(folds):
    def build(workspace, trained, tmp_path):
        return ["evaluate", "--functions", str(workspace / "funcs"),
                "--pairs", str(workspace / "pairs.csv"), "--folds", folds]
    return build


def _evaluate_seed(seed):
    def build(workspace, trained, tmp_path):
        return ["evaluate", "--functions", str(workspace / "funcs"),
                "--pairs", str(workspace / "pairs.csv"), "--seed", seed]
    return build


def _header_only_pairs(command):
    def build(workspace, trained, tmp_path):
        (tmp_path / "header.csv").write_text("id1,id2,label\n", encoding="utf-8")
        argv = (_finetune_argv(workspace, trained, tmp_path) if command == "finetune"
                else [command, "--functions", str(workspace / "funcs")])
        return argv + ["--pairs", str(tmp_path / "header.csv")]  # the last --pairs counts
    return build


def _weighted_without_weights(command):
    def build(workspace, trained, tmp_path):
        return [command, "--functions", str(workspace / "funcs"),
                "--pairs", str(workspace / "pairs.csv"), "--detector", "weighted"]
    return build


def _no_train_encoder(command, detector):
    """``command`` with --no-train-encoder and ``detector``; the weighted detector's
    --weights file does not exist, so reading it would fail with exit 2."""
    def build(workspace, trained, tmp_path):
        argv = [command, "--functions", str(workspace / "funcs"), "--pairs",
                str(workspace / "pairs.csv"), "--detector", detector, "--no-train-encoder"]
        return argv + (["--weights", str(tmp_path / "absent.txt")] if detector == "weighted"
                       else [])
    return build


def _weights_with(command, detector):
    """``command`` with ``detector`` and a --weights file that does not exist."""
    def build(workspace, trained, tmp_path):
        return [command, "--functions", str(workspace / "funcs"), "--pairs",
                str(workspace / "pairs.csv"), "--detector", detector,
                "--weights", str(tmp_path / "absent.txt")]
    return build


def _lex_error_in_functions(workspace, trained, tmp_path):
    (tmp_path / "ok.java").write_text(ADD1)
    (tmp_path / "zz_bad.java").write_text("int h() { int x = 1; # }")
    return ["tokenize", "--functions", str(tmp_path)]


def _with_config(command, data: bytes, *flags):
    """``command`` with ``flags`` and a --config file holding ``data``."""
    def build(workspace, trained, tmp_path):
        (tmp_path / "v.cfg").write_bytes(data)
        argv = {"embed-train": ["embed-train", "--functions", str(workspace / "funcs"),
                                "--out", str(tmp_path / "e.bin")],
                "evaluate": ["evaluate", "--functions", str(workspace / "funcs"),
                             "--pairs", str(workspace / "pairs.csv"), "--folds", "2"],
                "finetune": _finetune_argv(workspace, trained, tmp_path, "--epochs", "1"),
                "pretrain": _pretrain_argv(workspace, trained, tmp_path, workspace / "funcs")
                }[command]
        return argv + [*flags, "--config", str(tmp_path / "v.cfg")]
    return build


def _config_value(command, line, *flags):
    """``command`` with ``flags`` and a --config file whose second line is ``line``."""
    return _with_config(command, f"# one value\n{line}\n".encode(), *flags)


def _window_above_int64(workspace, trained, tmp_path):
    return ["embed-train", "--functions", str(workspace / "funcs"),
            "--out", str(tmp_path / "e.bin"), "--window", str(10**20)]


_WINDOW_ABOVE_INT64 = f"window must be <= {2**63 - 1}, got {10**20}"


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
_BOM = b"\xef\xbb\xbf"
# float32 bits of a signalling NaN: casting it to float64 raises numpy's "invalid" flag
_SNAN = struct.pack("<I", 0x7F800001)


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
        (_with_nan_params("encode", _SNAN), 2, "type.be2 of parameter file"),
        (_classify_with_head(_npz(k=np.array(1), **_W,
                                  **{"l0.b": np.frombuffer(_SNAN * 2, dtype="<f4")})),
         2, "non-finite"),
        (_classify_with_head(_npz(k=np.array(1), **{"l0.w": np.zeros((200, 2), complex)}, **_B)),
         2, "non-real"),
        (_with_threshold_nan("detect"), 1, "threshold must be finite"),
        (_with_threshold_nan("baseline"), 1, "threshold must be finite"),
        (lambda w, t, p: ["detect", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--embeddings", str(t["emb"]),
                          "--params", str(t["enc2"]), "--detector", "classifier",
                          "--head", str(t["head"]), "--threshold", "nan"],
         1, _CLASSIFIER_THRESHOLD),
        (_classifier_threshold("evaluate"), 1, _CLASSIFIER_THRESHOLD),
        (_classifier_threshold("bench-time"), 1, _CLASSIFIER_THRESHOLD),
        (_non_utf8_config, 1, "latin1.cfg"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--epochs", "1", "--lr", "nan"),
         1, "lr must be finite"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--epochs", "-1"),
         1, "epochs must be >= 0"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--epochs", "-1"), 1, "epochs must be >= 0"),
        (_evaluate_folds("0"), 1, "n_folds must be >= 1"),
        (_evaluate_folds("-1"), 1, "n_folds must be >= 1"),
        (lambda w, t, p: ["encode", "--in", str(w / "funcs" / "add1.java"),
                          "--embeddings", _a_dir(p), "--params", str(t["enc"])], 2, "a_dir"),
        (lambda w, t, p: ["encode", "--in", str(w / "funcs" / "add1.java"),
                          "--embeddings", str(t["emb"]), "--params", _a_dir(p)], 2, "a_dir"),
        (lambda w, t, p: ["detect", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--embeddings", str(t["emb"]),
                          "--params", str(t["enc2"]), "--detector", "classifier",
                          "--head", _a_dir(p)], 2, "a_dir"),
        (lambda w, t, p: ["baseline", "--functions", str(w / "funcs"), "--pairs", _a_dir(p)],
         2, "a_dir"),
        (lambda w, t, p: ["baseline", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--detector", "weighted",
                          "--weights", _a_dir(p)], 2, "a_dir"),
        (lambda w, t, p: ["tokenize", "--in", _a_dir(p)], 2, "a_dir"),
        (_lex_error_in_functions, 2, "zz_bad.java:1:22: illegal character '#'"),
        (_config_value("embed-train", "epochs = 1.5"), 1, "v.cfg:2: epochs: invalid literal"),
        (_config_value("embed-train", "window = 0x10"), 1, "v.cfg:2: window: invalid literal"),
        (_config_value("evaluate", "seed = abc"), 1, "v.cfg:2: seed: invalid literal"),
        (_config_value("finetune", "symmetrize = maybe"), 1, "v.cfg:2: unknown key 'symmetrize'"),
        (_config_value("embed-train", "epochs = 0"), 1, "v.cfg: epochs must be >= 1"),
        (_bad_weights(_BOM + b"1 " * 14), 2, "w.txt: need 15 weights"),
        (_bad_weights(_BOM + b"-1" + b" 0" * 14, "evaluate"), 2,
         "w.txt: weights must be finite and non-negative"),
        (_with_config("embed-train", _BOM + b"epochs = 0\n"), 1, "v.cfg: epochs must be >= 1"),
        (_with_config("evaluate", _BOM + b"epochs = 1\nbatch_size = 6\n"), 1,
         "v.cfg: batch_size 6 must be a multiple of samples_per_class"),
        (lambda w, t, p: ["embed-train", "--functions", str(w / "funcs"),
                          "--out", str(p / "e.bin"), "--seed", "-1"],
         1, "seed must be >= 0, got -1"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--seed", "-3"),
         1, "seed must be >= 0, got -3"),
        (_evaluate_seed("-2"), 1, "seed must be >= 0, got -2"),
        (_config_value("embed-train", "seed = -1"), 1, "v.cfg: seed must be >= 0, got -1"),
        (_config_value("evaluate", "seed = -1"), 1, "v.cfg: seed must be >= 0, got -1"),
        (_evaluate_folds("1"), 2, "no pairs to train the cosine detector on"),
        (_header_only_pairs("bench-time"), 2, "no pairs to train the cosine detector on"),
        (_config_value("embed-train", "epochs = 2", "--lr", "-1"), 1,
         "invalid configuration: lr must be > 0"),
        (_config_value("embed-train", "epochs = 2", "--window", "0"), 1,
         "invalid configuration: window must be >= 1"),
        (_config_value("evaluate", "epochs = 1", "--seed", "-1"), 1,
         "invalid configuration: seed must be >= 0, got -1"),
        (_config_value("embed-train", "epochs = 0", "--lr", "0.01"), 1,
         "v.cfg: epochs must be >= 1"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--lr", "0"), 1, "lr must be > 0"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--batch-size", "1"),
         1, "batch_size must be >= 2"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--temperature", "0"),
         1, "temperature must be > 0"),
        (lambda w, t, p: ["embed-train", "--functions", str(w / "funcs"),
                          "--out", str(p / "e.bin"), "--lr", "nan"],
         1, "lr must be finite, got nan"),
        (_encode_with_table(b"CCEMB1" + struct.pack("<II", 1, 50)), 2, "embedding dim 50 != 100"),
        (_encode_with_params(b"CCENC1" + struct.pack("<B2I", 2, 100, 99)),
         2, "tensor shape (100, 99) != expected"),
        (_header_only_pairs("finetune"), 2, "no pairs to fine-tune on"),
        (_config_value("pretrain", "samples_per_class = 1"), 1,
         "v.cfg: samples_per_class must be >= 2, got 1"),
        (_config_value("evaluate", "samples_per_class = 1"), 1,
         "v.cfg: samples_per_class must be >= 2, got 1"),
        (_window_above_int64, 1, _WINDOW_ABOVE_INT64),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--epochs", "1",
                                        "--batch-size", "8", "--lr", "1e39"),
         3, "beyond float32's range"),
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
         "params-signalling-nan", "head-signalling-nan", "head-complex",
         "threshold-nan-detect", "threshold-nan-baseline", "threshold-with-classifier",
         "threshold-with-classifier-evaluate", "threshold-with-classifier-bench-time",
         "config-non-utf8",
         "finetune-lr-nan",
         "pretrain-epochs-negative", "finetune-epochs-negative",
         "evaluate-folds-zero", "evaluate-folds-negative",
         "embeddings-is-dir", "params-is-dir", "head-is-dir", "pairs-is-dir",
         "weights-is-dir", "in-is-dir", "lex-error-names-file",
         "config-float-for-int", "config-hex-for-int", "config-seed-not-a-number",
         "config-bool-not-a-bool", "config-value-out-of-range",
         "weights-bom-wrong-count", "weights-bom-negative", "config-bom-value-out-of-range",
         "config-bom-evaluate-batch-size", "embed-train-seed-negative", "pretrain-seed-negative",
         "evaluate-seed-negative", "config-seed-negative-embed-train",
         "config-seed-negative-evaluate", "evaluate-one-fold-trains-on-nothing",
         "bench-time-header-only-pairs", "embed-train-bad-lr-flag-with-config",
         "embed-train-bad-window-flag-with-config", "evaluate-bad-seed-flag-with-config",
         "config-value-out-of-range-with-good-flag", "pretrain-lr-zero",
         "pretrain-batch-size-one", "pretrain-temperature-zero", "embed-train-lr-nan",
         "table-dim-not-100", "params-tensor-shape-wrong", "finetune-header-only-pairs",
         "config-pretrain-one-sample-per-class", "config-evaluate-one-sample-per-class",
         "embed-train-window-above-int64", "pretrain-params-beyond-float32"],
)
def test_bad_input_exit_codes(workspace, trained, tmp_path, capsys, build, code, message):
    assert run(build(workspace, trained, tmp_path)) == code
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1  # one clean line, no traceback


def _fail_when_called(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the options were checked")
    return fail


def _missing_dir(tmp_path):
    return str(tmp_path / "absent" / "out.bin")


@pytest.mark.parametrize(
    "build, code, bad",
    [
        (lambda w, t, p: ["embed-train", "--functions", str(w / "funcs"), "--out", _a_dir(p)],
         2, "a_dir"),
        (lambda w, t, p: ["embed-train", "--functions", str(w / "funcs"),
                          "--out", _missing_dir(p)], 2, "absent"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs")[:-2] + ["--out", _a_dir(p)],
         2, "a_dir"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--loss-log", _a_dir(p)),
         2, "a_dir"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--loss-log", _missing_dir(p)),
         2, "absent"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--out-params", _a_dir(p)), 2, "a_dir"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--out-head", _missing_dir(p)), 2, "absent"),
        (lambda w, t, p: ["evaluate", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--out", _a_dir(p)], 2, "a_dir"),
        (lambda w, t, p: ["bench-time", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--runs", "0"],
         1, "runs must be >= 1"),
        (_with_threshold_nan("detect"), 1, "threshold must be finite"),
        (_with_threshold_nan("evaluate"), 1, "threshold must be finite"),
        (_with_threshold_nan("bench-time"), 1, "threshold must be finite"),
        (_evaluate_seed("-1"), 1, "seed must be >= 0, got -1"),
        (lambda w, t, p: ["embed-train", "--functions", str(w / "funcs"),
                          "--out", str(p / "e.bin"), "--seed", "-1"], 1, "seed must be >= 0"),
        (lambda w, t, p: ["detect", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--embeddings", str(t["emb"]),
                          "--params", str(t["enc2"]), "--detector", "classifier"],
         1, "classifier detector needs --head"),
        (_weighted_without_weights("baseline"), 1, "weighted detector needs CategoryWeights"),
        (_weighted_without_weights("evaluate"), 1, "weighted detector needs CategoryWeights"),
        (_weighted_without_weights("bench-time"), 1, "weighted detector needs CategoryWeights"),
        (lambda w, t, p: ["detect", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--embeddings", str(t["emb"]),
                          "--params", str(t["enc"]), "--head", str(p / "absent.npz")],
         1, "head is for the classifier detector, not cosine"),
        (lambda w, t, p: ["detect", "--functions", str(w / "funcs"),
                          "--pairs", str(w / "pairs.csv"), "--embeddings", str(t["emb"]),
                          "--params", str(t["enc"]), "--symmetrize"],
         1, "symmetrize is for the classifier detector, not cosine"),
        (_weights_with("baseline", "overlap"), 1, "weights is for the weighted detector"),
        *[(_weights_with(command, detector), 1,
           f"weights is for the weighted detector, not {detector}")
          for command in ("evaluate", "bench-time")
          for detector in ("cosine", "classifier", "overlap")],
        (_config_value("evaluate", "symmetrize = 1"), 1, "v.cfg:2: unknown key 'symmetrize'"),
        (lambda w, t, p: _pretrain_argv(w, t, p, w / "funcs", "--loss-log", str(p / "enc.bin")),
         2, "name the same file"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--out-head", str(p / "enc2.bin")),
         2, "name the same file"),
        (lambda w, t, p: _finetune_argv(w, t, p, "--out-head", str(p / "." / ".." / p.name
                                                                    / "enc2.bin")),
         2, "name the same file"),
        *[(_no_train_encoder(command, detector), 1,
           f"train_encoder is for the cosine or classifier detector, not {detector}")
          for command in ("evaluate", "bench-time") for detector in ("overlap", "weighted")],
        (_evaluate_folds("0"), 1, "n_folds must be >= 1, got 0"),
        (_config_value("pretrain", "samples_per_class = 1"), 1,
         "v.cfg: samples_per_class must be >= 2, got 1"),
        (_window_above_int64, 1, _WINDOW_ABOVE_INT64),
    ],
    ids=["embed-train-out-dir", "embed-train-out-no-parent", "pretrain-out-dir",
         "pretrain-loss-log-dir", "pretrain-loss-log-no-parent", "finetune-out-params-dir",
         "finetune-out-head-no-parent", "evaluate-out-dir", "bench-time-runs-zero",
         "detect-threshold-nan", "evaluate-threshold-nan", "bench-time-threshold-nan",
         "evaluate-seed-negative", "embed-train-seed-negative", "detect-classifier-without-head",
         "baseline-weighted-without-weights", "evaluate-weighted-without-weights",
         "bench-time-weighted-without-weights", "detect-head-with-cosine",
         "detect-symmetrize-with-cosine", "baseline-weights-with-overlap",
         *[f"{command}-weights-with-{detector}" for command in ("evaluate", "bench-time")
           for detector in ("cosine", "classifier", "overlap")],
         "config-sets-symmetrize", "pretrain-loss-log-is-out", "finetune-out-head-is-out-params",
         "finetune-out-head-aliases-out-params",
         *[f"{command}-no-train-encoder-with-{detector}" for command in ("evaluate", "bench-time")
           for detector in ("overlap", "weighted")],
         "evaluate-folds-zero", "config-pretrain-one-sample-per-class",
         "embed-train-window-above-int64"],
)
def test_options_checked_before_any_work(workspace, trained, tmp_path, monkeypatch, capsys,
                                         build, code, bad):
    """A bad output path, run count, threshold or seed, a missing --head or --weights,
    or an option the detector does not read, fails before loading or training, and
    writes nothing."""
    for name in ("load_methods", "load_dataset", "load_table", "load_params", "load_head",
                 "train_word2vec", "pretrain", "finetune", "evaluate", "build_detector"):
        monkeypatch.setattr(cli, name, _fail_when_called(name))
    argv = build(workspace, trained, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == code
    err = capsys.readouterr().err
    assert bad in err
    assert len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


# each subcommand's flags and the attribute each sets; the training flags are generated
# from the config dataclasses, so a renamed field shows here
_PARSER_OPTIONS = {
    "tokenize": {"--functions": "functions", "--in": "inputs"},
    "embed-train": {"--functions": "functions", "--in": "inputs", "--out": "out",
                    "--config": "config", "--window": "window", "--negatives": "negatives",
                    "--epochs": "epochs", "--lr": "lr", "--min-count": "min_count",
                    "--seed": "seed"},
    "pretrain": {"--functions": "functions", "--pairs": "pairs", "--out": "out",
                 "--loss-log": "loss_log", "--config": "config", "--embeddings": "embeddings",
                 "--epochs": "epochs", "--batch-size": "batch_size", "--lr": "lr",
                 "--temperature": "temperature", "--seed": "seed"},
    "finetune": {"--functions": "functions", "--pairs": "pairs", "--out-params": "out_params",
                 "--out-head": "out_head", "--config": "config", "--embeddings": "embeddings",
                 "--params": "params", "--layers": "layers", "--epochs": "epochs",
                 "--batch-size": "batch_size", "--lr": "lr", "--seed": "seed"},
    "encode": {"--functions": "functions", "--in": "inputs", "--embeddings": "embeddings",
               "--params": "params"},
    "detect": {"--functions": "functions", "--in": "inputs", "--pairs": "pairs",
               "--embeddings": "embeddings", "--params": "params", "--head": "head",
               "--detector": "detector", "--threshold": "threshold",
               "--symmetrize": "symmetrize"},
    "baseline": {"--functions": "functions", "--in": "inputs", "--pairs": "pairs",
                 "--detector": "detector", "--weights": "weights", "--threshold": "threshold"},
    "explain": {"--functions": "functions", "--in": "inputs", "--embeddings": "embeddings",
                "--params": "params"},
    "evaluate": {"--functions": "functions", "--pairs": "pairs", "--detector": "detector",
                 "--threshold": "threshold", "--weights": "weights", "--config": "config",
                 "--seed": "seed", "--no-train-encoder": "no_train_encoder", "--folds": "folds",
                 "--out": "out"},
    "bench-time": {"--functions": "functions", "--pairs": "pairs", "--detector": "detector",
                   "--threshold": "threshold", "--weights": "weights", "--config": "config",
                   "--seed": "seed", "--no-train-encoder": "no_train_encoder",
                   "--runs": "runs"},
}


def test_run_builds_its_parser_once(capsys):
    """After a warm-up run, further runs make no new parser: a build leaves cycles
    that only a garbage collection frees. build_parser still gives a fresh one."""
    def parsers():
        return sum(isinstance(obj, argparse.ArgumentParser) for obj in gc.get_objects())

    run(["--version"])
    gc.disable()
    try:
        before = parsers()
        for _ in range(3):
            assert run(["--version"]) == 0
            assert run(["detect", "--no-such-flag"]) == 1
        assert parsers() == before
        assert cli.build_parser() is not cli.build_parser()
    finally:
        gc.enable()
    capsys.readouterr()


def test_parser_declares_each_subcommands_options():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {name: {flag: action.dest for action in sub._actions
                       for flag in action.option_strings if flag not in ("-h", "--help")}
                for name, sub in subs.choices.items()}
    assert declared == _PARSER_OPTIONS
    args = parser.parse_args(["finetune", "--functions", "f", "--pairs", "p", "--embeddings", "e",
                              "--params", "c", "--out-params", "o", "--out-head", "h",
                              "--layers", "5", "--epochs", "2", "--batch-size", "8",
                              "--lr", "1", "--seed", "3"])
    assert [(type(v), v) for v in (args.layers, args.epochs, args.batch_size, args.lr,
                                   args.seed)] == [(int, 5), (int, 2), (int, 8), (float, 1.0),
                                                   (int, 3)]
    assert run(["finetune", "--functions", "f", "--pairs", "p", "--embeddings", "e",
                "--params", "c", "--out-params", "o", "--out-head", "h", "--layers", "2"]) == 1


def test_byte_order_mark_accepted_in_weights_and_config(workspace, tmp_path, capsys):
    """A --weights or --config file that starts with a UTF-8 byte-order mark, as some
    editors write, reads as the same file without one."""
    (tmp_path / "w.txt").write_bytes(_BOM + (workspace / "weights.txt").read_bytes())
    scores = []
    for weights in (workspace / "weights.txt", tmp_path / "w.txt"):
        assert run(["baseline", "--functions", str(workspace / "funcs"), "--pairs",
                    str(workspace / "pairs.csv"), "--detector", "weighted",
                    "--weights", str(weights)]) == 0
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1]
    (tmp_path / "bom.cfg").write_bytes(_BOM + b"epochs = 1\nseed = 3\n")
    embed = ["embed-train", "--functions", str(workspace / "funcs"), "--out"]
    assert run([*embed, str(tmp_path / "flags.bin"), "--epochs", "1", "--seed", "3"]) == 0
    assert run([*embed, str(tmp_path / "bom.bin"), "--config", str(tmp_path / "bom.cfg")]) == 0
    assert (tmp_path / "bom.bin").read_bytes() == (tmp_path / "flags.bin").read_bytes()


def _child_env():
    """The environment of a child ``python -m clonecat.cli``: this checkout's ``src`` first."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_text_files_are_utf8_under_any_locale(workspace, trained, tmp_path):
    """Text inputs and outputs name their encoding; Python warns where one is left to the locale."""
    funcs, pairs = ["--functions", str(workspace / "funcs")], ["--pairs", str(workspace / "pairs.csv")]
    commands = [
        ["baseline", *funcs, *pairs, "--detector", "weighted",
         "--weights", str(workspace / "weights.txt")],
        ["evaluate", *funcs, *pairs, "--folds", "2", "--detector", "overlap",
         "--out", str(tmp_path / "report.json")],
        _pretrain_argv(workspace, trained, tmp_path, workspace / "funcs", "--epochs", "1",
                       "--loss-log", str(tmp_path / "loss.csv")),
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "clonecat.cli", *argv],
            env=_child_env(), capture_output=True, encoding="utf-8", timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").read_text(encoding="utf-8").startswith("{")
    assert (tmp_path / "loss.csv").read_text(encoding="utf-8").startswith("epoch,batch,loss")



@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_reader_closing_stdout_ends_by_sigpipe(tmp_path):
    """``clonecat baseline ... | head -1`` is no data error: the command ends by SIGPIPE with
    nothing on stderr. Its 1,900 verdict lines, about 217 kB, outgrow any pipe buffer, so the
    command is still writing when the reader leaves."""
    bases = builtin_base_methods()
    funcs = tmp_path / "funcs"
    funcs.mkdir()
    for name, source in bases.items():
        (funcs / f"{name}.java").write_text(source, encoding="utf-8")
    names = sorted(bases)
    rows = [f"{a},{b},0" for i, a in enumerate(names) for b in names[i + 1:]]
    (tmp_path / "pairs.csv").write_text("\n".join(["id1,id2,label", *rows * 10]),
                                        encoding="utf-8")
    with subprocess.Popen(
        [sys.executable, "-m", "clonecat.cli", "baseline", "--functions", str(funcs),
         "--pairs", str(tmp_path / "pairs.csv")],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b'{"detector": "overlap"')
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=120), stderr) == (-signal.SIGPIPE, b"")


# --- corrupted input files ------------------------------------------------

_POSITION = st.integers(-(2**24), 2**24)  # taken modulo the file length
_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), _POSITION, st.none()),
    st.tuples(st.just("flip"), _POSITION, st.integers(0, 7)),
    st.tuples(st.just("overwrite"), _POSITION, st.binary(min_size=1, max_size=8)),
)


def _mutate(data: bytes, mutation) -> bytes:
    kind, at, arg = mutation
    at %= len(data)
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ (1 << arg)]) + data[at + 1:]
    return data[:at] + arg + data[at + len(arg):]


def _mutate_npz_member(data: bytes, member: str, mutation) -> bytes:
    """Mutate one array of an npz and zip it again, so the bytes pass the CRC."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members[member] = _mutate(members[member], mutation)
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for name, raw in members.items():
            archive.writestr(name, raw)
    return out.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


@given(
    target=st.sampled_from(["emb", "enc", "head", "head/k", "head/l0.w", "head/l0.b",
                            "pairs", "weights", "java", "config"]),
    mutation=_MUTATION,
)
@example(target="enc", mutation=("overwrite", -4, _SNAN))
@example(target="head/l0.w", mutation=("overwrite", 22, b"c"))  # '<f8' -> '<c8', complex64
@settings(max_examples=300, deadline=None)
def test_corrupted_file_exits_cleanly(workspace, trained, target, mutation):
    """A mutated input file either runs cleanly or exits 2 with one stderr line.

    A mutated method source is tokenized and its error names it; a mutated
    config file drives embed-train, whose error is one line that names the
    file (exit 1) or a numeric failure (exit 3). Exit 0 must print only JSON
    lines without NaN or infinity; any Python warning, which would reach a
    user's stderr, fails the test.
    """
    funcs, pairs = ["--functions", str(workspace / "funcs")], ["--pairs", str(workspace / "pairs.csv")]
    models = {"emb": trained["emb"], "enc": trained["enc2"], "head": trained["head"],
              "pairs": workspace / "pairs.csv", "weights": workspace / "weights.txt",
              "java": workspace / "funcs" / "add1.java", "config": workspace / "fast.cfg"}
    name, _, member = target.partition("/")
    data = models[name].read_bytes()
    bad = workspace / "corrupt" / models[name].name
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(_mutate_npz_member(data, member + ".npy", mutation) if member
                    else _mutate(data, mutation))
    models[name] = bad
    if name == "java":
        argv = ["tokenize", "--in", str(bad)]
    elif name == "config":
        argv = ["embed-train", *funcs, "--out", str(bad.with_suffix(".bin")), "--config", str(bad)]
    elif name == "pairs":
        argv = ["baseline", *funcs, "--pairs", str(bad)]
    elif name == "weights":
        argv = ["baseline", *funcs, *pairs, "--detector", "weighted", "--weights", str(bad)]
    else:
        argv = ["detect", *funcs, *pairs, "--embeddings", str(models["emb"]),
                "--params", str(models["enc"]), "--detector", "classifier",
                "--head", str(models["head"])]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", DeprecationWarning)  # Python hides these from users
        code = run(argv)
    if code == 0:
        assert err.getvalue() == ""
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)
    else:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        if name == "config":
            assert code == 3 or (code == 1 and str(bad) in err.getvalue()), err.getvalue()
        else:
            assert code == 2, err.getvalue()
        if name == "java":
            assert str(bad) in err.getvalue()


# --- README --------------------------------------------------------------


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The README's first python block runs as printed beside a.java and b.java."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "a.java").write_text(ADD1)
    (tmp_path / "b.java").write_text(ADD3)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    verdict, weights = map(ast.literal_eval, capsys.readouterr().out.splitlines())
    assert (verdict["id1"], verdict["id2"]) == ("a", "b")
    assert abs(sum(weights["weights"].values()) - 1.0) < 1e-9


def test_readme_cli_lines_parse():
    """Every ``clonecat`` line of the README's CLI block parses with the flags the parser has."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("clonecat ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
