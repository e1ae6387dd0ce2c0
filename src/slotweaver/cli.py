"""Command-line surface: simulate, induce, evaluate, make-train-data.

Configuration comes from one YAML file plus flag overrides; the API
credential is read from the SLOTWEAVER_API_KEY environment variable. Exit
codes: 0 success, 1 pipeline error, 2 configuration/auth error.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import click
import yaml

from . import backend as backend_mod
from . import evalx, induct, refine, seqio, sim
from .backend import AuthError, Backend, BackendError
from .seqio import StateMode, canonical_json

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_CONFIG = 2


class ConfigError(click.ClickException):
    """Bad or missing configuration; exits with the config error code."""

    exit_code = EXIT_CONFIG


# Config keys passed on to the code that receives them, each with the name of
# the parameter it sets. Only the keys a file sets are passed, so the
# receiver's own default applies to the others.
HTTP_KEYS = {"api_key": "api_key", "max_retries": "max_retries",
             "requests_per_minute": "requests_per_minute"}
FILTER_KEYS = {"window": "window_w", "tau": "threshold_tau", "cap": "cap"}
RUN_KEYS = {"context_budget": "context_budget", "hard_cap": "hard_cap",
            "max_output": "max_output", "temperature": "temperature"}
SIM_KEYS = {"knowledge_size": "knowledge_size", "red_herrings": "red_herring_count",
            "p_clear": "p_clear", "max_turns": "max_turns", "temperature": "temperature"}

# Every key a config file may set, by section; None marks a key that the
# commands read themselves.
CONFIG_KEYS = {
    "backend": {"kind": None, "script": None, "endpoint": None, "model": None, **HTTP_KEYS},
    "induction": {"mode": None, "refiner": None, **FILTER_KEYS, **RUN_KEYS},
    "simulation": {"scenarios": None, "dialogues_per_scenario": None, **SIM_KEYS},
}
TOP_LEVEL_KEYS = {*CONFIG_KEYS, "seed", "loss_limit"}


def _passed(section: dict, keys: dict, **flags) -> dict:
    """The settings of ``section`` that ``keys`` names, under their parameter
    names, overridden by every flag that is set."""
    settings = {param: section[key] for key, param in keys.items() if key in section}
    settings.update((param, value) for param, value in flags.items() if value is not None)
    return settings


@dataclass
class RunConfig:
    """Merged view of the config file; a key it does not set is left to the
    default of the code that reads it."""

    backend: dict = field(default_factory=dict)
    induction: dict = field(default_factory=dict)
    simulation: dict = field(default_factory=dict)
    seed: Optional[int] = None
    loss_limit: float = 0.5

    @classmethod
    def load(cls, path: Optional[str]) -> "RunConfig":
        cfg = cls()
        if not path:
            return cfg
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping, got {type(raw).__name__}")
        unknown = [str(key) for key in raw if key not in TOP_LEVEL_KEYS]
        for name, known in CONFIG_KEYS.items():
            section = raw.get(name)
            if section is not None and not isinstance(section, dict):
                raise ConfigError(f"{path}: {name} must be a mapping, got {type(section).__name__}")
            getattr(cfg, name).update(section or {})
            unknown += [f"{name}.{key}" for key in section or {} if key not in known]
        if unknown:
            raise ConfigError(f"{path}: unknown config key {', '.join(unknown)}")
        cfg.seed = raw.get("seed")
        cfg.loss_limit = raw.get("loss_limit", cfg.loss_limit)
        if cfg.seed is not None and type(cfg.seed) is not int:
            raise ConfigError(f"{path}: seed must be an integer or null, got {cfg.seed!r}")
        if type(cfg.loss_limit) not in (int, float) or not 0 <= cfg.loss_limit <= 1:
            raise ConfigError(f"{path}: loss_limit must be a number in [0, 1], "
                              f"got {cfg.loss_limit!r}")
        return cfg

    def make_backend(self) -> Backend:
        kind = self.backend.get("kind", "scripted")
        if kind == "scripted":
            script = self.backend.get("script")
            if not script:
                raise ConfigError("scripted backend needs backend.script in the config")
            try:
                return backend_mod.load_script(script)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"backend.script: {exc}") from exc
        if kind == "http":
            if not self.backend.get("endpoint"):
                raise ConfigError("http backend needs backend.endpoint in the config")
            try:
                return backend_mod.HttpBackend(
                    endpoint=self.backend["endpoint"],
                    model=self.backend.get("model", "default"),
                    **_passed(self.backend, HTTP_KEYS),
                )
            except ValueError as exc:
                raise ConfigError(f"backend: {exc}") from exc
        raise ConfigError(f"unknown backend kind: {kind!r}")


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@click.group()
def main() -> None:
    """Slot schema induction, simulation, and evaluation pipeline."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Corpus output path.")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--scenarios", "n_scenarios", type=click.IntRange(min=1), default=None)
@click.option("--dialogues-per-scenario", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=int, default=None)
def simulate(config_path, out_path, report_path, n_scenarios, dialogues_per_scenario, seed):
    """Simulate a state-annotated corpus and write it to disk."""
    cfg = RunConfig.load(config_path)
    seed = seed if seed is not None else cfg.seed
    try:
        sim_cfg = sim.SimConfig(**_passed(cfg.simulation, SIM_KEYS))
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}") from exc
    # the flags are checked by click; only a count from the file can be bad
    n_scenarios = n_scenarios or cfg.simulation.get("scenarios", 2)
    dialogues_per_scenario = (dialogues_per_scenario
                              or cfg.simulation.get("dialogues_per_scenario", 2))
    for name, count in (("scenarios", n_scenarios),
                        ("dialogues_per_scenario", dialogues_per_scenario)):
        if type(count) is not int or count < 1:
            raise ConfigError(f"simulation: {name} must be an integer >= 1, got {count!r}")
    try:
        backend = cfg.make_backend()
        scenarios = sim.generate_scenarios(n_scenarios, backend, sim_cfg)
        corpus, report = sim.simulate_corpus(
            scenarios, dialogues_per_scenario, backend, random.Random(seed), sim_cfg
        )
    except AuthError as exc:
        _fail(str(exc), EXIT_CONFIG)
    except (sim.SimError, BackendError, seqio.CorpusFormatError) as exc:
        _fail(str(exc), EXIT_PIPELINE)
    seqio.save_corpus(corpus, out_path)
    if report_path:
        _write(Path(report_path), canonical_json(report.to_obj()))
    click.echo(
        f"simulated {report.produced}/{report.dialogues_requested} dialogues "
        f"({report.lost} lost) -> {out_path}"
    )
    loss_fraction = report.lost / report.dialogues_requested if report.dialogues_requested else 0.0
    sys.exit(EXIT_OK if loss_fraction < cfg.loss_limit else EXIT_PIPELINE)


def _states_jsonl(state_log) -> str:
    return "".join(
        json.dumps(entry.to_obj(), ensure_ascii=False, sort_keys=True) + "\n"
        for entry in state_log
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--mode", type=click.Choice([m.value for m in StateMode]), default=None)
@click.option("--refiner", "refiner_name",
              type=click.Choice(["none", "slot-conf", "fifo", "priority", "revision"]),
              default=None)
@click.option("--window", type=click.IntRange(min=1), default=None,
              help="Confidence window in dialogues.")
@click.option("--tau", type=click.IntRange(min=1), default=None,
              help="Confidence threshold in updates.")
@click.option("--cap", type=click.IntRange(min=1), default=None,
              help="FIFO/priority schema size cap.")
@click.option("--two-pass", is_flag=True, default=False)
@click.option("--seed", type=int, default=None,
              help="Stream-order seed; used only with --shuffle-seed.")
@click.option("--shuffle-seed", "shuffle", is_flag=True, default=False,
              help="Shuffle stream order by the seed.")
def induce(config_path, corpus_path, out_dir, mode, refiner_name, window, tau, cap,
           two_pass, seed, shuffle):
    """Run streaming induction over a corpus, emitting schema + state log."""
    cfg = RunConfig.load(config_path)
    mode = StateMode(mode or cfg.induction.get("mode", "state"))
    refiner_name = refiner_name if refiner_name is not None else cfg.induction.get("refiner", "none")
    try:
        filter_cfg = refine.FilterConfig(
            **_passed(cfg.induction, FILTER_KEYS, window_w=window, threshold_tau=tau, cap=cap)
        )
    except ValueError as exc:
        raise ConfigError(f"induction: {exc}") from exc
    seed = (seed if seed is not None else cfg.seed) if shuffle else None
    out = Path(out_dir)
    kwargs = _passed(cfg.induction, RUN_KEYS)
    try:
        induct.InductionRun(**kwargs)  # checks the run settings before any call
    except ValueError as exc:
        raise ConfigError(f"induction: {exc}") from exc
    try:
        corpus = seqio.load_corpus(corpus_path)
    except seqio.CorpusFormatError as exc:
        _fail(str(exc), EXIT_CONFIG)

    try:
        backend = cfg.make_backend()
        refiner = refine.make_refiner(refiner_name, filter_cfg, backend)
        if two_pass:
            schema, result = induct.run_two_pass(
                corpus, mode, refiner, backend, seed=seed, **kwargs
            )
        else:
            result = induct.run_induction(corpus, mode, refiner, backend, seed=seed, **kwargs)
            schema = result.final_schema
    except AuthError as exc:
        _fail(str(exc), EXIT_CONFIG)
    except (BackendError, induct.SchemaOverflowError) as exc:
        _fail(str(exc), EXIT_PIPELINE)
    report = result.to_obj()
    report["two_pass"] = two_pass
    report["mode"] = mode.value
    report["refiner"] = {"name": refiner_name, "params": refiner.params() if refiner else {}}
    _write(out / "schema.json", canonical_json(seqio.schema_to_obj(schema)))
    _write(out / "states.jsonl", _states_jsonl(result.state_log))
    _write(out / "report.json", canonical_json(report))
    click.echo(
        f"[{out}] {len(schema)} slots, {result.turns_processed} turns, "
        f"{result.parse_failures} parse failures"
    )
    if result.turns_processed and result.failed_turns == result.turns_processed:
        _fail(f"every backend call failed in {out}", EXIT_PIPELINE)
    sys.exit(EXIT_OK)


def _load_state_log(path: Path):
    """Read a states.jsonl state log: one JSON object per line.

    A malformed log is a CorpusFormatError naming the file and the line.
    """
    log = []
    for lineno, line in enumerate(seqio.read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            log.append(seqio.StateLogEntry.from_obj(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise seqio.CorpusFormatError(f"{where}: invalid JSON: {exc}") from exc
        except seqio.CorpusFormatError as exc:
            raise seqio.CorpusFormatError(f"{where}: {exc}") from exc
    return log


@main.command()
@click.option("--predictions", type=click.Path(exists=True), required=True,
              help="A states.jsonl state log from induce.")
@click.option("--gold", "gold_path", type=click.Path(exists=True), required=True)
@click.option("--mode", type=click.Choice([m.value for m in StateMode]), default="state")
@click.option("--human-mapping", "human_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def evaluate(predictions, gold_path, mode, human_path, out_path):
    """Score a run's states against a gold corpus; print the metric table."""
    try:
        gold = seqio.load_corpus(gold_path)
        log = _load_state_log(Path(predictions))
        human = evalx.load_human_mapping(human_path) if human_path else None
        report = evalx.evaluate_run(log, gold, StateMode(mode))
    except seqio.CorpusFormatError as exc:
        _fail(str(exc), EXIT_CONFIG)
    except (evalx.UnknownScenario, evalx.InvalidGold) as exc:
        _fail(str(exc), EXIT_PIPELINE)
    click.echo(report.render_table())
    if human is not None:
        P = evalx.collect_valued_slots(log)
        G = evalx.gold_valued_slots(gold.dialogues, StateMode(mode))
        auto = evalx.match_slots(P, G)
        try:
            agreement = evalx.mapping_agreement(auto, human)
        except evalx.IncompleteMapping as exc:
            _fail(str(exc), EXIT_PIPELINE)
        click.echo(f"mapping agreement with human decisions: {agreement:.3f}")
    if out_path:
        _write(Path(out_path), canonical_json(report.to_obj()))
    sys.exit(EXIT_OK)


@main.command("make-train-data")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--mode", type=click.Choice([m.value for m in StateMode]), default="state")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--revision", is_flag=True, default=False)
@click.option("--noisy-log", "noisy_path", type=click.Path(exists=True), default=None,
              help="Prior run's state log for revision pair construction.")
@click.option("--seed", type=int, default=0)
def make_train_data(corpus_path, mode, out_path, revision, noisy_path, seed):
    """Emit JSON-lines (prompt, target) training pairs."""
    try:
        corpus = seqio.load_corpus(corpus_path)
        if revision:
            if not noisy_path:
                _fail("--revision requires --noisy-log", EXIT_CONFIG)
            noisy = _load_state_log(Path(noisy_path))
            pairs = refine.build_revision_pairs(corpus, noisy, seed)
        else:
            pairs = seqio.build_training_sequences(corpus, StateMode(mode))
    except seqio.CorpusFormatError as exc:
        _fail(str(exc), EXIT_CONFIG)
    except seqio.MissingGoldError as exc:
        _fail(str(exc), EXIT_PIPELINE)
    seqio.save_training_pairs(pairs, out_path)
    click.echo(f"wrote {len(pairs)} pairs -> {out_path}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
