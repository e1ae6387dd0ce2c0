"""Output checks for one benchmark iteration.

Each check returns a list of problems; an empty list means the outputs are
correct. Any seed: every user turn is logged once and in stream order, the
pass-2 keys are a subset of the final schema, and the counts match the
generator. Default seed: the output files hash to the reference recorded
from the parent commit (``reference.json``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
REFERENCE_FILES = (
    "sim_corpus.json", "sim_report.json", "induce/schema.json",
    "induce/states.jsonl", "induce/report.json", "metrics.json",
)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _keys_of(state_obj: dict):
    return {(domain, name) for domain, slots in state_obj.items() for name in slots}


def check_simulate(run_dir: Path, expected: dict):
    problems = []
    report = _load(run_dir / "sim_report.json")
    requested, lost = expected["sim_requested"], expected["sim_lost"]
    produced = requested - lost
    if (report["dialogues_requested"], report["lost"], report["produced"]) != (requested, lost, produced):
        problems.append(f"simulate report {report} != requested {requested}, lost {lost}")
    if report["termination_histogram"] != {"completed": produced}:
        problems.append(f"simulate terminations {report['termination_histogram']}")
    corpus = _load(run_dir / "sim_corpus.json")
    gold = {(d["name"], s["name"]) for d in corpus["gold_schema"]["domains"] for s in d["slots"]}
    if len(gold) != expected["sim_gold_keys"]:
        problems.append(f"simulated gold schema has {len(gold)} keys, expected {expected['sim_gold_keys']}")
    if len(corpus["dialogues"]) != produced:
        problems.append(f"simulated corpus has {len(corpus['dialogues'])} dialogues, expected {produced}")
    filled = 0
    for d in corpus["dialogues"]:
        for turn in d["turns"][::2]:
            if turn["speaker"] != "user" or turn["state"] is None:
                problems.append(f"simulated dialogue {d['id']}: user turn without a state")
                break
            if not _keys_of(turn["state"]) <= gold:
                problems.append(f"simulated dialogue {d['id']}: state outside the gold schema")
                break
            filled += bool(turn["state"])
    if not filled:
        problems.append("simulated corpus has no filled state")
    return problems


def check_induce(run_dir: Path, corpus_path: Path, turns: int, malformed: int):
    problems = []
    out = run_dir / "induce"
    report = _load(out / "report.json")
    if report["turns_processed"] != turns:
        problems.append(f"induce processed {report['turns_processed']} turns, expected {turns}")
    if report["parse_failures"] != malformed:
        problems.append(f"induce parse failures {report['parse_failures']}, expected {malformed}")
    if report["errors"]:
        problems.append(f"induce errors: {report['errors'][:3]}")
    corpus = _load(corpus_path)
    stream = [
        (d["id"], i, t)
        for i, d in enumerate(corpus["dialogues"])
        for t, turn in enumerate(d["turns"]) if turn["speaker"] == "user"
    ]
    lines = (out / "states.jsonl").read_text(encoding="utf-8").splitlines()
    logged = [json.loads(line) for line in lines]
    if [(e["dialogue_id"], e["dialogue_index"], e["turn"]) for e in logged] != stream:
        problems.append("states.jsonl does not log each user turn once in stream order")
    schema = _load(out / "schema.json")
    keys = {(d["name"], s["name"]) for d in schema["domains"] for s in d["slots"]}
    if not keys:
        problems.append("induced schema is empty")
    stray = set().union(*(_keys_of(e["state"]) for e in logged)) - keys if logged else set()
    if stray:
        problems.append(f"pass-2 keys outside the final schema: {sorted(stray)[:3]}")
    return problems


def check_evaluate(run_dir: Path, corpus_path: Path):
    problems = []
    metrics = _load(run_dir / "metrics.json")
    scenarios = {d["scenario_id"] for d in _load(corpus_path)["dialogues"]}
    if set(metrics["per_scenario"]) != scenarios:
        problems.append(f"evaluate scored scenarios {sorted(metrics['per_scenario'])}")
    for part in ("slot", "value"):
        for name, value in metrics[part].items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"evaluate {part} {name} = {value} out of range")
    return problems


def digests(run_dir: Path) -> dict:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in REFERENCE_FILES
    }


def check_reference(run_dir: Path, workload: str):
    """Compare the default-seed outputs with the recorded reference."""
    reference = _load(REFERENCE).get(workload) if REFERENCE.exists() else None
    if reference is None:
        return [f"no reference recorded for {workload}"]
    actual = digests(run_dir)
    return [f"{name} differs from the reference" for name in REFERENCE_FILES
            if actual[name] != reference[name]]


def failed_share(run_dir: Path, expected: dict) -> float:
    """Share of failed work units of the workload's main command."""
    if expected["primary"] == "simulate":
        report = _load(run_dir / "sim_report.json")
        return report["lost"] / report["dialogues_requested"]
    report = _load(run_dir / "induce" / "report.json")
    return (report["parse_failures"] + len(report["errors"])) / report["turns_processed"]
