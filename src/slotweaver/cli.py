"""Command-line surface: simulate, induce, evaluate, make-train-data.

Configuration comes from one YAML file plus flag overrides; the API
credential is read from the SLOTWEAVER_API_KEY environment variable. Exit
codes: 0 success, 1 pipeline error, 2 configuration/auth error.

Each command loads only what it runs: ``evaluate`` and ``make-train-data``
load no YAML, simulator, induction, backend or HTTP code, nor ``logging``,
and only ``evaluate`` loads the metrics.

The cyclic garbage collector is managed here alone, by one policy: every
command, ``simulate`` included, runs with it paused and hands what it made
over unscanned when it ends (``_collector_paused``). Only a failed backend
call or a lost dialogue leaves reference cycles, held until the command
ends. The heap is frozen at exit, so interpreter shutdown skips its last
collection (see ``main``).
"""

from __future__ import annotations

import atexit
import gc
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

import click

# yaml, sim, induct, evalx and backend are imported inside the code that uses
# them: click registers every command when this module loads, so a top-level
# import would load them for every command. The HTTP client loads on first use
# of backend.HttpBackend.
from . import refine, seqio
from .seqio import StateMode

if TYPE_CHECKING:
    from .backend import Backend

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_CONFIG = 2


class ConfigError(click.ClickException):
    """Bad or missing configuration; exits with the config error code."""

    exit_code = EXIT_CONFIG


# Config keys passed on to the code that receives them, each with the name of
# the parameter it sets. Only the keys a file sets are passed, so the
# receiver's own default applies to the others.
HTTP_KEYS = {"model": "model", "api_key": "api_key", "max_retries": "max_retries"}
FILTER_KEYS = {"window": "window_w", "tau": "threshold_tau", "cap": "cap"}
SIM_KEYS = {"knowledge_size": "knowledge_size", "red_herrings": "red_herring_count",
            "p_clear": "p_clear", "max_turns": "max_turns"}

# Every key a config file may set, by section; None marks a key that the
# commands read themselves.
CONFIG_KEYS = {
    "backend": {"kind": None, "script": None, "endpoint": None, **HTTP_KEYS},
    "induction": {"mode": None, "refiner": None, **FILTER_KEYS},
    "simulation": {"scenarios": None, "dialogues_per_scenario": None, **SIM_KEYS},
}
TOP_LEVEL_KEYS = {*CONFIG_KEYS, "seed", "loss_limit"}


def _passed(section: dict, keys: dict) -> dict:
    """The settings of ``section`` that ``keys`` names, under their parameter names."""
    return {param: section[key] for key, param in keys.items() if key in section}


@dataclass
class RunConfig:
    """Merged view of the config file and the flags that override it; a key
    that neither sets is left to the default of the code that reads it."""

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
        import yaml

        try:
            raw = yaml.safe_load(seqio.read_utf8(path)) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        except seqio.CorpusFormatError as exc:
            raise ConfigError(str(exc)) from exc
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

    def override(self, seed: Optional[int], **sections: dict) -> "RunConfig":
        """Put each flag that is set over its key: ``seed`` at the top level,
        the others in the section that ``sections`` names them under."""
        self.seed = self.seed if seed is None else seed
        for name, flags in sections.items():
            getattr(self, name).update((k, v) for k, v in flags.items() if v is not None)
        return self

    def make_backend(self) -> Backend:
        from . import backend as backend_mod

        kind = self.backend.get("kind", "scripted")
        if kind == "scripted":
            script = self.backend.get("script")
            if not script or not isinstance(script, str):
                raise ConfigError("scripted backend needs backend.script, a script file path, "
                                  f"in the config; got {script!r}")
            try:
                return backend_mod.load_script(script)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"backend.script: {exc}") from exc
        if kind == "http":
            if not self.backend.get("endpoint"):
                raise ConfigError("http backend needs backend.endpoint in the config")
            try:
                return backend_mod.HttpBackend(
                    endpoint=self.backend["endpoint"], **_passed(self.backend, HTTP_KEYS)
                )
            except ValueError as exc:
                raise ConfigError(f"backend: {exc}") from exc
        raise ConfigError(f"unknown backend kind: {kind!r}")


@contextmanager
def _command_backend(cfg: RunConfig) -> Iterator[Backend]:
    """The configured backend, closed when the command is done with it."""
    backend = cfg.make_backend()
    try:
        yield backend
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic collector until the command returns or exits, then
    hand everything alive to the oldest generation without scanning it
    (``gc.freeze`` then ``gc.unfreeze``), so the caller's next young
    collection does not walk what the command made, and leave the collector
    as it was found. A caller's own freeze stays, and the hand-over, which
    would undo it, is then skipped."""
    enabled, caller_froze = gc.isenabled(), gc.get_freeze_count() > 0
    gc.disable()
    try:
        yield
    finally:
        if not caller_froze:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Slot schema induction, simulation, and evaluation pipeline."""
    # Freeze whatever is alive at exit, so that interpreter shutdown's last
    # collection has nothing to walk. Skipping that collection loses nothing:
    # every artifact is written and closed inside seqio._write's `with`, the
    # interpreter flushes stdout and stderr whatever the collector does,
    # ordered_map joins its pools, and _command_backend closes the HTTP
    # connections. Registered here, when a command runs, and not on import,
    # so importing this module leaves its host process's exit as it was;
    # unregistered first, so a process that runs many commands holds one hook.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    # paused until the group's context closes, after the command ends
    click.get_current_context().with_resource(_collector_paused())


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Corpus output path.")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--scenarios", "n_scenarios", type=int, default=None)
@click.option("--dialogues-per-scenario", type=int, default=None)
@click.option("--seed", type=int, default=None)
def simulate(config_path, out_path, report_path, n_scenarios, dialogues_per_scenario, seed):
    """Simulate a state-annotated corpus and write it to disk."""
    from . import sim
    from .backend import AuthError, BackendError

    cfg = RunConfig.load(config_path).override(seed, simulation=dict(
        scenarios=n_scenarios, dialogues_per_scenario=dialogues_per_scenario))
    try:
        sim_cfg = sim.SimConfig(**_passed(cfg.simulation, SIM_KEYS))
        n_scenarios = cfg.simulation.get("scenarios", 2)
        dialogues_per_scenario = cfg.simulation.get("dialogues_per_scenario", 2)
        for name, count in (("scenarios", n_scenarios),
                            ("dialogues_per_scenario", dialogues_per_scenario)):
            if type(count) is not int or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}") from exc
    try:
        with _command_backend(cfg) as backend:
            scenarios = sim.generate_scenarios(n_scenarios, backend)
            corpus, report = sim.simulate_corpus(
                scenarios, dialogues_per_scenario, backend, random.Random(cfg.seed), sim_cfg
            )
    except AuthError as exc:
        _fail(str(exc), EXIT_CONFIG)
    except (sim.SimError, BackendError, seqio.CorpusFormatError) as exc:
        _fail(str(exc), EXIT_PIPELINE)
    # the dialogues of the scenarios the reply fell short of are requested and lost
    short = (n_scenarios - len(scenarios)) * dialogues_per_scenario
    report = replace(report, dialogues_requested=report.dialogues_requested + short,
                     lost=report.lost + short)
    seqio.save_corpus(corpus, out_path)
    if report_path:
        seqio.save_json(report.to_obj(), report_path)
    click.echo(
        f"simulated {report.produced}/{report.dialogues_requested} dialogues "
        f"({report.lost} lost) -> {out_path}"
    )
    too_lossy = report.lost and report.lost / report.dialogues_requested >= cfg.loss_limit
    sys.exit(EXIT_PIPELINE if too_lossy else EXIT_OK)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--mode", type=click.Choice([m.value for m in StateMode]), default=None)
@click.option("--refiner", type=click.Choice(list(refine.REFINERS)), default=None)
@click.option("--window", type=int, default=None, help="Confidence window in dialogues.")
@click.option("--tau", type=int, default=None, help="Confidence threshold in updates.")
@click.option("--cap", type=int, default=None, help="FIFO/priority schema size cap.")
@click.option("--two-pass", is_flag=True, default=False)
@click.option("--seed", type=int, default=None,
              help="Stream-order seed; used only with --shuffle-seed.")
@click.option("--shuffle-seed", "shuffle", is_flag=True, default=False,
              help="Shuffle stream order by the seed.")
def induce(config_path, corpus_path, out_dir, mode, refiner, window, tau, cap,
           two_pass, seed, shuffle):
    """Run streaming induction over a corpus, emitting schema + state log."""
    from . import induct
    from .backend import AuthError, BackendError

    cfg = RunConfig.load(config_path).override(seed, induction=dict(
        mode=mode, refiner=refiner, window=window, tau=tau, cap=cap))
    try:
        mode = StateMode(cfg.induction.get("mode", "state"))
        refiner_name = cfg.induction.get("refiner", "none")
        refine.refiner_class(refiner_name)
        filter_cfg = refine.FilterConfig(**_passed(cfg.induction, FILTER_KEYS))
    except ValueError as exc:
        raise ConfigError(f"induction: {exc}") from exc
    if shuffle and cfg.seed is None:
        raise ConfigError("--shuffle-seed needs a seed: pass --seed or set seed in the config")
    seed = cfg.seed if shuffle else None
    out = Path(out_dir)
    try:
        corpus = seqio.load_stream(corpus_path)
    except seqio.CorpusFormatError as exc:
        _fail(str(exc), EXIT_CONFIG)

    try:
        with _command_backend(cfg) as backend:
            refiner = refine.make_refiner(refiner_name, filter_cfg, backend)
            if two_pass:
                schema, result = induct.run_two_pass(corpus, mode, refiner, backend, seed=seed)
            else:
                result = induct.run_induction(corpus, mode, refiner, backend, seed=seed)
                schema = result.final_schema
    except AuthError as exc:
        _fail(str(exc), EXIT_CONFIG)
    except (BackendError, induct.SchemaOverflowError) as exc:
        _fail(str(exc), EXIT_PIPELINE)
    report = result.report_obj()
    report["two_pass"] = two_pass
    report["mode"] = mode.value
    report["refiner"] = {"name": refiner_name, "params": refiner.params() if refiner else {}}
    seqio.save_json(seqio.schema_to_obj(schema), out / "schema.json")
    # one pass over the state log writes states.jsonl and the report's states
    seqio.save_run_log(report, out / "states.jsonl", out / "report.json")
    click.echo(
        f"[{out}] {len(schema)} slots, {result.turns_processed} turns, "
        f"{result.parse_failures} parse failures"
    )
    if result.turns_processed and result.failed_turns == result.turns_processed:
        _fail(f"every backend call failed in {out}", EXIT_PIPELINE)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--predictions", type=click.Path(exists=True), required=True,
              help="A states.jsonl state log from induce.")
@click.option("--gold", "gold_path", type=click.Path(exists=True), required=True)
@click.option("--mode", type=click.Choice([m.value for m in StateMode]), default="state")
@click.option("--human-mapping", "human_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def evaluate(predictions, gold_path, mode, human_path, out_path):
    """Score a run's states against a gold corpus; print the metric table."""
    from . import evalx

    try:
        gold_schema, dialogues, entries = evalx.load_run(predictions, gold_path)
        human = evalx.load_human_mapping(human_path) if human_path else None
        slots = evalx.scenario_slots(StateMode(mode), gold_schema, dialogues, entries)
        report = evalx.score_slots(slots)
    except seqio.CorpusFormatError as exc:
        _fail(str(exc), EXIT_CONFIG)
    except (evalx.UnknownScenario, evalx.InvalidGold) as exc:
        _fail(str(exc), EXIT_PIPELINE)
    click.echo(report.render_table())
    if human is not None:
        auto = evalx.match_slots(*evalx.corpus_slots(slots))
        try:
            agreement = evalx.mapping_agreement(auto, human)
        except evalx.IncompleteMapping as exc:
            _fail(str(exc), EXIT_PIPELINE)
        click.echo(f"mapping agreement with human decisions: {agreement:.3f}")
    if out_path:
        seqio.save_json(report.to_obj(), out_path)
    sys.exit(EXIT_OK)


@main.command("make-train-data")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--mode", type=click.Choice([m.value for m in StateMode]), default="state")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--noisy-log", "noisy_path", type=click.Path(exists=True), default=None,
              help="Prior run's state log; emit schema revision pairs from it.")
@click.option("--seed", type=int, default=0)
def make_train_data(corpus_path, mode, out_path, noisy_path, seed):
    """Emit JSON-lines (prompt, target) training pairs: DST pairs, or
    schema revision pairs when a noisy state log is given."""
    try:
        corpus = seqio.load_corpus(corpus_path)
        noisy = seqio.load_state_log(noisy_path) if noisy_path else None
        if noisy is not None:
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
