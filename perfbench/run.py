"""Benchmark of the clonecat pipeline, driven only through its public entry points.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``. A run
sets up its inputs at least three times (``setup_s`` is the median), then
repeats whole rounds of the workload's operations for about ``--seconds``
seconds, importing clonecat afresh before every round so that no in-process
cache outlives a round, as none outlives a ``clonecat`` invocation. It then
checks the outputs of the first round against oracles computed apart from
the program, and that every later round printed the same bytes.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``round_s`` (the
sum over the round's operations of each one's median time) and
``peak_rss_mb``. The two times are scaled to a reference machine speed: a
fixed calibration kernel is timed before every set-up and every round, and
each time is multiplied by ``REF_CALIBRATION_S`` over the kernel's median
time in the run. On a shared host whose speed drifts from minute to minute,
this cancels the drift that whole runs share; the unscaled times are on the
``detail`` line.

``--trace 1`` alternates untraced rounds with rounds whose module functions
are wrapped in spans, prints the per-layer metrics derived from those spans
and the tracing overhead, and writes the spans as JSON lines under
``.perfbench/``. Earlier stdout lines carry the machine record and a
``detail`` object; the last line is the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# calibration kernel time at the reference speed the reported seconds refer to
REF_CALIBRATION_S = 0.040
CALIBRATIONS = 3  # kernel samples before every set-up and every round
# set-up repeats: at least 3, and until 2 s of set-up has been timed
SETUPS_MIN, SETUPS_MAX, SETUP_SECONDS = 3, 30, 2.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

def fresh_program() -> SimpleNamespace:
    """Import clonecat from ``src/`` with no module state left from before."""
    for name in [n for n in sys.modules if n == "clonecat" or n.startswith("clonecat.")]:
        del sys.modules[name]
    names = ("cli", "bench", "embed", "encoder", "train", "lexcat")
    program = SimpleNamespace(**{n: importlib.import_module(f"clonecat.{n}") for n in names})
    if SRC.resolve() not in Path(program.cli.__file__).resolve().parents:
        raise RuntimeError(f"clonecat was imported from {program.cli.__file__}, not {SRC}")
    return program


def machine_record() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "platform": platform.platform(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


_CAL_RNG = np.random.default_rng(0)
_CAL_ROWS = _CAL_RNG.standard_normal((8, 100))
_CAL_WORDS = [f"w{i % 487}" for i in range(5000)]


def calibration_s() -> float:
    """Time a fixed kernel shaped like the program's own work: dict and
    string churn as in lexing and counting, and numpy calls on a few rows
    as in the attention blocks. It calls no BLAS routine, so a program that
    changes BLAS threading cannot change it."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(30):
        for word in _CAL_WORDS:
            counts[word] = counts.get(word, 0) + 1
    pairs = [(w, len(w)) for w in _CAL_WORDS for _ in range(20)]
    counts["pairs"] = len(sorted(pairs))
    for _ in range(1500):
        y = np.exp(_CAL_ROWS - _CAL_ROWS.max(axis=1, keepdims=True))
        y /= y.sum(axis=1, keepdims=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write machine record, detail and result as one JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "clonecat" / "cli.py").is_file():
        print(f"no clonecat sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = machine_record()
    print(json.dumps({"machine": machine}), flush=True)

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        detail, result = _run(args, workload, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    if args.out:
        args.out.write_text(json.dumps({"machine": machine, "detail": detail, "result": result},
                                       indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _run(args, workload, work: Path, spans) -> tuple[dict, dict]:
    setup_times, calibrations = [], []
    while len(setup_times) < SETUPS_MIN or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUPS_MAX):
        calibrations += [calibration_s() for _ in range(CALIBRATIONS)]
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        program = fresh_program()
        inputs = workload.setup(program, work, args.seed)
        setup_times.append(time.perf_counter() - start)

    tracer = spans.Tracer() if args.trace else None
    # traced runs: a cold untraced round, then traced and untraced rounds in
    # turn, two of each at least; the cold round is left out of the overhead
    min_rounds = 5 if args.trace else workload.min_rounds
    rounds: list[dict] = []   # per round: traced flag, op list, hooks
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        calibrations += [calibration_s() for _ in range(CALIBRATIONS)]
        program = fresh_program()
        hooks = {"seed": args.seed}
        sink = spans.TimedSink if traced else spans.StdoutSink
        sinks = []

        def sink_factory(sink=sink, sinks=sinks):
            sinks.append(sink())
            return sinks[-1]

        wall = time.perf_counter()
        if traced:
            tracer.run_id = f"{args.workload}:{args.seed}:{len(rounds)}"
            tracer.install()
        try:
            ops = workload.run_round(program, inputs, sink_factory, hooks)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - wall
        rounds.append({"traced": traced, "ops": ops, "hooks": hooks, "wall": wall,
                       "sink_lines": sum(getattr(s, "lines", 0) for s in sinks),
                       "sink_seconds": sum(getattr(s, "seconds", 0.0) for s in sinks)})
        attempted += sum(op.units for op in ops)
        failed += sum(op.units for op in ops if not op.ok)
        elapsed = time.perf_counter() - begin
        if len(rounds) >= min_rounds and elapsed + np.median([r["wall"] for r in rounds]) > args.seconds:
            break

    rss = peak_rss_mb()  # the rounds' peak, before the checks allocate their own
    first = rounds[0]
    failures = [f"{op.name}: {op.error}" for r in rounds for op in r["ops"] if not op.ok][:5]
    problems = []
    for r in rounds[1:]:
        for op, ref in zip(r["ops"], first["ops"]):
            if op.ok and ref.ok and op.output != ref.output:
                problems.append(f"{op.name}: output differs between rounds")
    quality = {}
    try:
        found, quality = workload.check(fresh_program(), inputs, first["ops"], args.seed,
                                        first["hooks"])
        problems += found
    except (KeyError, ValueError, IndexError) as exc:
        problems.append(f"check could not read the program's output: {exc!r}")

    untraced = [r for r in rounds if not r["traced"]]
    op_times: dict[str, list[float]] = {}
    for r in untraced:
        for op in r["ops"]:
            op_times.setdefault(op.name, []).append(op.seconds)
    round_s = sum(float(np.median(ts)) for ts in op_times.values())
    calibration = float(np.median(calibrations))
    speed = REF_CALIBRATION_S / calibration
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "setup_runs_s": setup_times, "op_times_s": op_times,
        "round_raw_s": round_s, "setup_raw_s": float(np.median(setup_times)),
        "calibration_s": calibration, "speed_factor": speed,
        **(workload.detail(op_times, quality, inputs) if not problems else {}),
        "problems": problems, "failures": failures,
    }

    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        t_round = float(np.median([sum(op.seconds for op in r["ops"]) for r in traced_rounds]))
        u_round = float(np.median([sum(op.seconds for op in r["ops"]) for r in untraced[1:]]))
        layer, extra = spans.layer_metrics(
            tracer.spans, len(traced_rounds),
            [s for r in traced_rounds for s in r["hooks"].get("fold_s", [])],
            sum(r["sink_lines"] for r in traced_rounds),
            sum(r["sink_seconds"] for r in traced_rounds))
        layer["trace.overhead_pct"] = 100.0 * (t_round / u_round - 1.0)
        detail.update(extra)
        detail["traced_round_s"], detail["untraced_round_s"] = t_round, u_round
        detail["not_traced"] = sorted(tracer.missing)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics = {name: {"value": float(layer[name]), "unit": unit}
                   for name, unit in spans.UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": float(np.median(setup_times)) * speed, "unit": "s"},
            "round_s": {"value": round_s * speed, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return detail, {"correct": not problems, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
