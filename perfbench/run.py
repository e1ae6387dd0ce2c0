"""slotweaver benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stream-cpu --seed 3 --seconds 42 --trace 0

Run from the repository root. The harness generates the workload's inputs
from the seed, starts the loopback stub model server, and then:

* ``--trace 0``: runs the CLI loop (simulate, induce --two-pass, evaluate)
  as separate processes for ``--seconds`` seconds, timing a fresh-interpreter
  set-up before each command (at least 15 in all), checks every output and
  reports the end-to-end metrics as medians. The CPU part of each time is
  rescaled to a reference host speed, measured with a fixed loop before
  each set-up and command (``calibration_seconds``, ``rescaled``), so that
  the host's speed drift does not show as a change of the program.
* ``--trace 1``: drives the CLI in-process with spans around each layer
  (``spans.py``) and reports the per-layer metrics. The spans of the latest
  traced run of each workload are kept in ``.perfbench_work/trace-<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import gen
import pipeline

SETUP_MIN_SAMPLES = 15
# Median of calibration_seconds() on the baseline machine (see README.md).
CALIBRATION_REF_S = 0.045
COMMAND_TIMEOUT_S = 150
TRACE_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "induce_s": "s",
    "evaluate_s": "s",
    "simulate_s": "s",
    "backend_requests": "count",
    "prompt_kchars": "kchar",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}

_COUNTS = {
    "core.schema_size.max", "core.schema_writes", "seqio.parse_warnings",
    "seqio.parse_failures", "backend.retries", "refine.evictions",
    "evalx.match_slots.pairs", "sim.retries",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in _COUNTS:
        return "count"
    if "chars" in name:
        return "chars"
    if "_ms" in name:
        return "ms"
    if name.endswith("growth_4x"):
        return "ratio"
    if name == "sim.calls_per_dialogue":
        return "calls/dialogue"
    return "s"


# The set-up a fresh interpreter pays before a command can start work.
_SETUP_CODE = (
    "import sys\n"
    "from slotweaver import cli, seqio\n"
    "seqio.load_corpus(sys.argv[1])\n"
    "for config in sys.argv[2:]:\n"
    "    cli.RunConfig.load(config).make_backend()\n"
)


def _setup_seconds(root: Path, inputs: Path, log: Path) -> tuple:
    """(wall s, CPU s) of one fresh-interpreter set-up."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(inputs / "corpus.json"),
            str(inputs / "config_induce.yaml"), str(inputs / "config_sim.yaml")]
    code, wall, cpu, _ = pipeline.timed_process(argv, pipeline.cli_env(root), log,
                                                COMMAND_TIMEOUT_S)
    if code != 0:
        raise pipeline.CommandFailed(f"set-up exited with {code}; see {log}")
    return wall, cpu


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop.

    It runs in the harness between commands, never beside one, so it
    measures how fast the host runs the interpreter at that moment and adds
    no load. Of the jobs tried (this loop, a JSON and dict job, a large
    dict with random lookups, a fresh interpreter doing imports and JSON),
    its median over a run tracked the commands' medians best.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - t0


def rescaled(wall: float, cpu: float, speed_factor: float) -> float:
    """Wall time with its CPU part rescaled to the reference CPU speed.

    ``speed_factor`` is how much slower than the reference the host ran the
    calibration job. Only the CPU seconds are divided by it; waiting, such
    as the stub's emulated latency, is kept as measured.
    """
    return wall - cpu + cpu / speed_factor


def _check(name: str, run_dir: Path, inputs: Path, expected: dict, quarter: bool = False):
    if name == "simulate":
        return checks.check_simulate(run_dir, expected)
    corpus = inputs / ("corpus_q.json" if quarter else "corpus.json")
    if name == "induce":
        prefix = "quarter_" if quarter else ""
        return checks.check_induce(run_dir, corpus, expected[prefix + "turns"],
                                   expected[prefix + "malformed"])
    return checks.check_evaluate(run_dir, corpus)


class Result:
    """Operations attempted and failed, with the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, name: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
        return not problems


def timed_run(args, root: Path, work: Path, inputs: Path, expected: dict, stub) -> tuple:
    result = Result()
    calibrations = []
    # (wall s, CPU s) of each timed process
    times = {name: [] for name in ("setup_s", "induce_s", "evaluate_s", "simulate_s")}
    setups = times["setup_s"]

    def sample_setup():
        # set-up samples are spread over the run, one before each command
        calibrations.append(calibration_seconds())
        result.attempted += 1
        setups.append(_setup_seconds(root, inputs, work / f"setup{len(setups)}.log"))

    samples = {name: [] for name in END_TO_END if name not in times}
    repeats = gen.WORKLOADS[args.workload]["repeats"]
    durations = []
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        run_dir = work / f"it{i}"
        run_dir.mkdir(parents=True)
        requests = prompt_chars = 0
        rss = 0.0
        ok = True
        for name, argv in pipeline.commands(inputs, run_dir):
            sample_setup()
            for _ in range(repeats.get(name, 1)):
                calibrations.append(calibration_seconds())
                stub.client.reset()
                counts_path = run_dir / f"{name}.counts.json"
                code, wall, cpu, peak = pipeline.run_cli(argv, root, counts_path,
                                                         run_dir / f"{name}.log", COMMAND_TIMEOUT_S)
                stats = stub.client.stats()
                problems = [f"exit code {code}, see {run_dir / (name + '.log')}"] if code else []
                if not problems:
                    problems = _check(name, run_dir, inputs, expected)
                if stats["unknown"]:
                    problems.append(f"stub could not answer {stats['unknown']} requests")
                if not result.record(name, problems):
                    ok = False
                    break
                rss = max(rss, peak)
                times[f"{name}_s"].append((wall, cpu + stats["cpu_s"]))
            if not ok:
                break
            # a repeat sends the same requests, so one run of the command counts
            counts = json.loads(counts_path.read_text(encoding="utf-8"))
            requests += counts["calls"] + stats["requests"]
            prompt_chars += counts["prompt_chars"] + stats["prompt_chars"]
        if not ok:
            break
        if args.seed == checks.DEFAULT_SEED and i == 0:
            if args.record_reference:
                _record_reference(args.workload, checks.digests(run_dir))
            elif not result.record("reference", checks.check_reference(run_dir, args.workload)):
                break
        samples["backend_requests"].append(requests)
        samples["prompt_kchars"].append(prompt_chars / 1000)
        samples["peak_rss_mb"].append(rss)
        samples["failed_share"].append(checks.failed_share(run_dir, expected))
        shutil.rmtree(run_dir)
        durations.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > args.seconds:
            break

    while not result.failed and len(setups) < SETUP_MIN_SAMPLES:
        sample_setup()

    speed_factor = statistics.median(calibrations) / CALIBRATION_REF_S
    print(f"{len(durations)} iterations, {len(setups)} set-ups, speed factor {speed_factor:.4f}: "
          + json.dumps(dict(samples, calibration_s=calibrations, **times)), file=sys.stderr)
    metrics = {}
    if not result.failed:
        for name, pairs in times.items():
            metrics[name] = statistics.median(rescaled(w, c, speed_factor) for w, c in pairs)
        for name, values in samples.items():
            metrics[name] = statistics.median(values)
    return result, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items() if k in metrics}


def traced_run(args, root: Path, work: Path, inputs: Path, expected: dict, stub) -> tuple:
    result = Result()
    out = work / "trace"
    argv = [sys.executable, str(pipeline.HERE / "spans.py"), "--inputs", str(inputs),
            "--out", str(out), "--endpoint", stub.endpoint]
    code, _, _, _ = pipeline.timed_process(argv, pipeline.cli_env(root), work / "trace.log",
                                           TRACE_TIMEOUT_S)
    if code:
        result.record("traced run", [f"exit code {code}, see {work / 'trace.log'}"])
        return result, {}
    for label, quarter in (("untraced", False), ("traced", False), ("quarter", True)):
        for name, _ in pipeline.commands(inputs, out / label, quarter=quarter):
            result.record(f"{label} {name}", _check(name, out / label, inputs, expected, quarter))
    if checks.digests(out / "traced") != checks.digests(out / "untraced"):
        result.record("tracing", ["traced outputs differ from untraced ones"])
    layers = json.loads((out / "layers.json").read_text(encoding="utf-8"))
    m = layers["metrics"]
    if any(s["unknown"] for s in layers["stub"].values()):
        result.record("stub", ["stub could not answer some requests"])
    result.record("spans", layers["problems"])
    return result, {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(m.items())}


def _record_reference(workload: str, digests: dict) -> None:
    ref = json.loads(checks.REFERENCE.read_text(encoding="utf-8")) if checks.REFERENCE.exists() else {}
    ref[workload] = digests
    checks.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="slotweaver benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default-seed output digests instead of checking them")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the stub server and a running command stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "slotweaver" / "cli.py").is_file():
        print("error: run from a slotweaver checkout (src/slotweaver not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    inputs = work / "inputs"
    expected = gen.build_inputs(args.workload, args.seed, inputs)
    with pipeline.StubProcess(inputs / "stub_table.json", work / "stub.log") as stub:
        gen.write_configs(inputs, stub.endpoint, expected)
        run = traced_run if args.trace else timed_run
        try:
            result, metrics = run(args, root, work, inputs, expected, stub)
        except pipeline.CommandFailed as exc:
            result, metrics = Result(), {}
            result.record("set-up", [str(exc)])
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not result.failed
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    if correct:
        if args.trace:  # keep the spans of the latest traced run of each workload
            keep = work.parent / f"trace-{args.workload}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir()
            for name in ("spans.jsonl", "layers.json"):
                shutil.move(str(work / "trace" / name), str(keep / name))
        shutil.rmtree(work)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
