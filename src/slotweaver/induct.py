"""Streaming induction engine: joint per-turn state tracking and slot
discovery, schema accumulation, and the two-pass setup.

Each turn is a predict step (render, generate, parse), which only reads
the run, and a fold step, which records the outcome in the run in stream
order. An inducing run is strictly sequential: each turn conditions on the
schema left by the previous one. A DST-only run (pass 2 of the two-pass
setup) is not: its schema is frozen, so its predict steps are independent
and up to the backend's ``max_in_flight`` of them overlap, while the fold
stays in stream order on the calling thread, so the result is the same
bytes as with one call at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .backend import AuthError, Backend, BackendError, GenerationRequest, ordered_map
from .core import Dialogue, DialogueState, SlotSchema, schema_update
from .refine import Refiner
from .seqio import (
    CorpusFile,
    MissingValuesHeader,
    StateLogEntry,
    StateMode,
    parse_state_block,
    render_prompt,
    schema_to_obj,
)

__all__ = [
    "InductionRun",
    "RunResult",
    "StateLogEntry",
    "SchemaOverflowError",
    "TurnPrediction",
    "predict_turn",
    "fold_turn",
    "induce_turn",
    "run_induction",
    "run_two_pass",
    "DEFAULT_CONTEXT_BUDGET",
    "DEFAULT_HARD_CAP",
    "DEFAULT_MAX_OUTPUT",
    "DEFAULT_TEMPERATURE",
]

DEFAULT_CONTEXT_BUDGET = 8000  # characters of dialogue context per prompt
DEFAULT_HARD_CAP = 300  # absolute schema size guard, independent of refiners
DEFAULT_MAX_OUTPUT = 1024  # output limit of each turn's call
DEFAULT_TEMPERATURE = 0.0


class SchemaOverflowError(RuntimeError):
    """The schema exceeded the hard size cap; the run is aborted."""


@dataclass
class InductionRun:
    """Mutable state of one streaming induction run."""

    schema: SlotSchema = field(default_factory=SlotSchema)
    mode: StateMode = StateMode.STATE
    refiner: Optional[Refiner] = None
    dst_only: bool = False
    context_budget: int = DEFAULT_CONTEXT_BUDGET
    hard_cap: int = DEFAULT_HARD_CAP
    max_output: int = DEFAULT_MAX_OUTPUT
    temperature: float = DEFAULT_TEMPERATURE
    stream_position: Tuple[int, int] = (0, 0)
    per_turn_states: List[StateLogEntry] = field(default_factory=list)
    parse_failures: int = 0
    failed_turns: int = 0
    dropped_discoveries: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("context_budget", "hard_cap", "max_output"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.temperature) not in (int, float) or not self.temperature >= 0:
            raise ValueError(f"temperature must be a number >= 0, got {self.temperature!r}")


@dataclass(frozen=True)
class TurnPrediction:
    """Outcome of the predict step for one turn: the parsed state, or None
    when the reply had no values header or the backend call failed."""

    state: Optional[DialogueState]
    error: Optional[BackendError] = None


def predict_turn(
    run: InductionRun, dialogue: Dialogue, turn: int, backend: Backend
) -> TurnPrediction:
    """Render the prompt for one user turn, call the backend and parse the
    reply. Reads ``run`` but never writes to it. A BackendError other than
    AuthError is returned in the prediction, not raised."""
    if dialogue.turns[turn].speaker != "user":
        raise ValueError(f"turn {turn} of dialogue {dialogue.id} is not a user turn")
    prompt = render_prompt(run.schema, dialogue, turn, run.mode, char_budget=run.context_budget)
    try:
        response = backend.generate(
            GenerationRequest(prompt, max_output=run.max_output, temperature=run.temperature)
        )
    except AuthError:
        raise
    except BackendError as exc:
        return TurnPrediction(None, exc)
    try:
        return TurnPrediction(parse_state_block(response, run.schema).state)
    except MissingValuesHeader:
        return TurnPrediction(None)


def fold_turn(
    run: InductionRun, dialogue: Dialogue, turn: int, prediction: TurnPrediction
) -> Tuple[DialogueState, SlotSchema]:
    """Record one turn's prediction in the run: a backend error or a parse
    failure yields the empty state; discoveries are folded into the schema,
    or dropped when the run is in DST-only mode."""
    state = prediction.state
    if prediction.error is not None:
        run.errors.append(f"{dialogue.id}:{turn}: {prediction.error}")
        run.failed_turns += 1
        state = DialogueState()
    elif state is None:
        run.parse_failures += 1
        state = DialogueState()

    if run.dst_only:
        dropped = [key for key in state.keys() if key not in run.schema]
        if dropped:
            run.dropped_discoveries.extend(
                f"{dialogue.id}:{turn}:{key}" for key in sorted(map(str, dropped))
            )
            kept = frozenset((k, v) for k, v in state.triples if k in run.schema)
            state = DialogueState(kept)
    else:
        run.schema = schema_update(run.schema, state, discovered_at=run.stream_position)
        if len(run.schema) > run.hard_cap:
            raise SchemaOverflowError(
                f"schema reached {len(run.schema)} slots (hard cap {run.hard_cap}) "
                f"at dialogue {dialogue.id} turn {turn}"
            )
    return state, run.schema


def induce_turn(
    run: InductionRun, dialogue: Dialogue, turn: int, backend: Backend
) -> Tuple[DialogueState, SlotSchema]:
    """Predict the state for one user turn and fold it into the run. A
    BackendError other than AuthError is recorded in ``run.errors`` and the
    turn gets the empty state."""
    return fold_turn(run, dialogue, turn, predict_turn(run, dialogue, turn, backend))


@dataclass(frozen=True)
class RunResult:
    final_schema: SlotSchema
    state_log: Tuple[StateLogEntry, ...]
    parse_failures: int
    turns_processed: int
    seed: Optional[int]
    errors: Tuple[str, ...] = ()
    failed_turns: int = 0  # turns whose backend call failed; not serialized

    def to_obj(self) -> dict:
        return {
            "final_schema": schema_to_obj(self.final_schema),
            "states": [entry.to_obj() for entry in self.state_log],
            "parse_failures": self.parse_failures,
            "turns_processed": self.turns_processed,
            "seed": self.seed,
            "errors": list(self.errors),
        }


def _stream_order(corpus: CorpusFile, seed: Optional[int]) -> List[Dialogue]:
    dialogues = list(corpus.dialogues)
    if seed is not None:
        random.Random(seed).shuffle(dialogues)
    return dialogues


def _tracked_turns(dialogue: Dialogue, mode: StateMode) -> List[int]:
    user_turns = dialogue.user_turn_indices()
    return user_turns[-1:] if mode is StateMode.FINAL else user_turns


def _record(
    run: InductionRun, dialogue: Dialogue, turn: int, d_index: int, state: DialogueState
) -> None:
    run.per_turn_states.append(StateLogEntry(dialogue.id, turn, state, d_index))
    if run.refiner is not None:
        run.refiner.observe_state(state, d_index)


def _retrack(run: InductionRun, order: List[Dialogue], backend: Backend) -> None:
    """DST-only pass: predict every turn against the frozen schema, up to the
    backend's ``max_in_flight`` calls at a time (see ``ordered_map``), and
    fold the predictions in stream order on the calling thread.
    """
    frozen_version = run.schema.version
    stream = [
        (d_index, dialogue, turn)
        for d_index, dialogue in enumerate(order)
        for turn in _tracked_turns(dialogue, run.mode)
    ]

    def predict(item: Tuple[int, Dialogue, int]) -> TurnPrediction:
        _, dialogue, turn = item
        return predict_turn(run, dialogue, turn, backend)

    with ordered_map(backend) as overlapped:
        predictions = overlapped(predict, stream)
        for (d_index, dialogue, turn), prediction in zip(stream, predictions):
            state, _ = fold_turn(run, dialogue, turn, prediction)
            _record(run, dialogue, turn, d_index, state)
    assert run.schema.version == frozen_version, "schema mutated in DST mode"


def run_induction(
    corpus: CorpusFile,
    mode: StateMode,
    refiner: Optional[Refiner],
    backend: Backend,
    seed: Optional[int] = None,
    initial_schema: Optional[SlotSchema] = None,
    dst_only: bool = False,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
    hard_cap: int = DEFAULT_HARD_CAP,
    max_output: int = DEFAULT_MAX_OUTPUT,
    temperature: float = DEFAULT_TEMPERATURE,
) -> RunResult:
    """Process the dialogue stream, accumulating the schema and state log.

    Stream order is corpus order, or shuffled when a seed is given. The
    refiner (if any) runs at every dialogue boundary. Per-turn backend and
    parse failures, and backend failures of the refiner (which leave the
    schema unchanged, recorded as ``<dialogue id>:refine: <error>``), are
    aggregated into the result; only AuthError aborts.
    With ``dst_only`` the schema stays frozen and the backend calls overlap
    (see ``_retrack``); the result is the same as with serial calls.
    """
    run = InductionRun(
        schema=initial_schema if initial_schema is not None else SlotSchema(),
        mode=mode,
        refiner=refiner,
        dst_only=dst_only,
        context_budget=context_budget,
        hard_cap=hard_cap,
        max_output=max_output,
        temperature=temperature,
    )
    order = _stream_order(corpus, seed)
    if dst_only:
        _retrack(run, order, backend)
    else:
        for d_index, dialogue in enumerate(order):
            for turn_index in _tracked_turns(dialogue, mode):
                run.stream_position = (d_index, turn_index)
                state, _ = induce_turn(run, dialogue, turn_index, backend)
                _record(run, dialogue, turn_index, d_index, state)
            if refiner is not None:
                try:
                    run.schema = refiner.end_dialogue(run.schema, d_index)
                except AuthError:
                    raise
                except BackendError as exc:
                    run.errors.append(f"{dialogue.id}:refine: {exc}")
    return RunResult(
        final_schema=run.schema,
        state_log=tuple(run.per_turn_states),
        parse_failures=run.parse_failures,
        turns_processed=len(run.per_turn_states),
        seed=seed,
        errors=tuple(run.errors),
        failed_turns=run.failed_turns,
    )


def run_two_pass(
    corpus: CorpusFile,
    mode: StateMode,
    refiner: Optional[Refiner],
    backend: Backend,
    seed: Optional[int] = None,
    **kwargs,
) -> Tuple[SlotSchema, RunResult]:
    """Induce the final schema (pass 1), then re-track every state against
    the frozen schema in DST mode (pass 2). Pass-2 states are the ones used
    for evaluation."""
    pass1 = run_induction(corpus, mode, refiner, backend, seed=seed, **kwargs)
    pass2 = run_induction(
        corpus,
        mode,
        refiner=None,
        backend=backend,
        seed=seed,
        initial_schema=pass1.final_schema,
        dst_only=True,
        **kwargs,
    )
    return pass1.final_schema, pass2
