"""Streaming induction engine: joint per-turn state tracking and slot
discovery, schema accumulation, and the two-pass setup.

A single run is strictly sequential (each turn conditions on the schema
left by the previous one); independent runs may execute in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .backend import AuthError, Backend, BackendError, GenerationRequest
from .core import Dialogue, DialogueState, SlotSchema, schema_update
from .refine import Refiner
from .seqio import (
    DEFAULT_PACK,
    CorpusFile,
    MissingValuesHeader,
    PromptPack,
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
    "induce_turn",
    "run_induction",
    "run_two_pass",
    "DEFAULT_CONTEXT_BUDGET",
    "DEFAULT_HARD_CAP",
]

DEFAULT_CONTEXT_BUDGET = 8000  # characters of dialogue context per prompt
DEFAULT_HARD_CAP = 300  # absolute schema size guard, independent of refiners


class SchemaOverflowError(RuntimeError):
    """The schema exceeded the hard size cap; the run is aborted."""


@dataclass
class InductionRun:
    """Mutable state of one streaming induction run."""

    schema: SlotSchema = field(default_factory=SlotSchema)
    mode: StateMode = StateMode.STATE
    refiner: Optional[Refiner] = None
    dst_only: bool = False
    pack: PromptPack = DEFAULT_PACK
    context_budget: int = DEFAULT_CONTEXT_BUDGET
    hard_cap: int = DEFAULT_HARD_CAP
    max_output: int = 1024
    temperature: float = 0.0
    stream_position: Tuple[int, int] = (0, 0)
    per_turn_states: List[StateLogEntry] = field(default_factory=list)
    parse_failures: int = 0
    dropped_discoveries: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def induce_turn(
    run: InductionRun, dialogue: Dialogue, turn: int, backend: Backend
) -> Tuple[DialogueState, SlotSchema]:
    """Predict the state for one user turn and fold discoveries into the
    schema (unless the run is in DST-only mode)."""
    if dialogue.turns[turn].speaker != "user":
        raise ValueError(f"turn {turn} of dialogue {dialogue.id} is not a user turn")
    prompt = render_prompt(
        run.schema, dialogue, turn, run.mode, run.pack, char_budget=run.context_budget
    )
    response = backend.generate(
        GenerationRequest(prompt, max_output=run.max_output, temperature=run.temperature)
    )
    try:
        prediction = parse_state_block(response, run.schema, run.pack)
        state = prediction.state
    except MissingValuesHeader:
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


@dataclass(frozen=True)
class RunResult:
    final_schema: SlotSchema
    state_log: Tuple[StateLogEntry, ...]
    parse_failures: int
    turns_processed: int
    seed: Optional[int]
    errors: Tuple[str, ...] = ()

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


def run_induction(
    corpus: CorpusFile,
    mode: StateMode,
    refiner: Optional[Refiner],
    backend: Backend,
    seed: Optional[int] = None,
    initial_schema: Optional[SlotSchema] = None,
    dst_only: bool = False,
    pack: PromptPack = DEFAULT_PACK,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
    hard_cap: int = DEFAULT_HARD_CAP,
    max_output: int = 1024,
    temperature: float = 0.0,
) -> RunResult:
    """Process the dialogue stream, accumulating the schema and state log.

    Stream order is corpus order, or shuffled when a seed is given. The
    refiner (if any) runs at every dialogue boundary. Per-turn backend and
    parse failures are aggregated into the result; only AuthError aborts.
    """
    run = InductionRun(
        schema=initial_schema if initial_schema is not None else SlotSchema(),
        mode=mode,
        refiner=refiner,
        dst_only=dst_only,
        pack=pack,
        context_budget=context_budget,
        hard_cap=hard_cap,
        max_output=max_output,
        temperature=temperature,
    )
    frozen_version = run.schema.version
    turns = 0
    for d_index, dialogue in enumerate(_stream_order(corpus, seed)):
        user_turns = dialogue.user_turn_indices()
        if mode is StateMode.FINAL:
            user_turns = user_turns[-1:]
        for turn_index in user_turns:
            run.stream_position = (d_index, turn_index)
            try:
                state, _ = induce_turn(run, dialogue, turn_index, backend)
            except AuthError:
                raise
            except BackendError as exc:
                run.errors.append(f"{dialogue.id}:{turn_index}: {exc}")
                state = DialogueState()
            turns += 1
            run.per_turn_states.append(
                StateLogEntry(dialogue.id, turn_index, state, d_index)
            )
            if refiner is not None:
                refiner.observe_state(state, d_index)
        if refiner is not None and not dst_only:
            run.schema = refiner.end_dialogue(run.schema, d_index)
        if dst_only:
            assert run.schema.version == frozen_version, "schema mutated in DST mode"
    return RunResult(
        final_schema=run.schema,
        state_log=tuple(run.per_turn_states),
        parse_failures=run.parse_failures,
        turns_processed=turns,
        seed=seed,
        errors=tuple(run.errors),
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
