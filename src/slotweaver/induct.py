"""Streaming induction engine: joint per-turn state tracking and slot
discovery, schema accumulation, and the two-pass setup.

``run_induction`` walks the dialogue stream in one of two loops. An inducing
run is strictly sequential: each turn is predicted against the schema left
by the previous one. A DST-only run (pass 2 of the two-pass setup) is not:
its schema is frozen, so its turns are independent and up to the backend's
``max_in_flight`` calls overlap, while the results are recorded in stream
order on the calling thread, so the result is the same bytes as with one
call at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

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
    "RunResult",
    "StateLogEntry",
    "SchemaOverflowError",
    "check_settings",
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

# What predicting one turn gives: its state, None for a reply without a
# values header, or the error of a failed backend call.
Outcome = Union[DialogueState, BackendError, None]


class SchemaOverflowError(RuntimeError):
    """The schema exceeded the hard size cap; the run is aborted."""


def check_settings(
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
    hard_cap: int = DEFAULT_HARD_CAP,
    max_output: int = DEFAULT_MAX_OUTPUT,
    temperature: float = DEFAULT_TEMPERATURE,
) -> None:
    """Raise ValueError naming the first run setting out of range."""
    for name, value in (("context_budget", context_budget), ("hard_cap", hard_cap),
                        ("max_output", max_output)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if type(temperature) not in (int, float) or not temperature >= 0:
        raise ValueError(f"temperature must be a number >= 0, got {temperature!r}")


@dataclass(frozen=True)
class RunResult:
    final_schema: SlotSchema
    state_log: Tuple[StateLogEntry, ...]
    parse_failures: int
    seed: Optional[int]
    errors: Tuple[str, ...] = ()
    failed_turns: int = 0  # turns whose backend call failed; not serialized

    @property
    def turns_processed(self) -> int:
        return len(self.state_log)

    def to_obj(self) -> dict:
        return {
            "final_schema": schema_to_obj(self.final_schema),
            "states": [entry.to_obj() for entry in self.state_log],
            "parse_failures": self.parse_failures,
            "turns_processed": self.turns_processed,
            "seed": self.seed,
            "errors": list(self.errors),
        }


def _tracked_turns(dialogue: Dialogue, mode: StateMode) -> List[int]:
    user_turns = dialogue.user_turn_indices()
    return user_turns[-1:] if mode is StateMode.FINAL else user_turns


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
    refiner (if any) observes every state and runs at every dialogue
    boundary. A turn whose backend call fails, or whose reply has no values
    header, gets the empty state. Those failures, and backend failures of
    the refiner (which leave the schema unchanged, recorded as
    ``<dialogue id>:refine: <error>``), are aggregated into the result; only
    AuthError aborts. With ``dst_only`` the schema stays frozen, discoveries
    are dropped, no refiner runs at the boundaries, and the backend calls
    overlap; the result is the same as with serial calls.
    """
    check_settings(context_budget, hard_cap, max_output, temperature)
    schema = initial_schema if initial_schema is not None else SlotSchema()
    order = list(corpus.dialogues)
    if seed is not None:
        random.Random(seed).shuffle(order)
    state_log: List[StateLogEntry] = []
    errors: List[str] = []
    parse_failures = failed_turns = 0

    def predict(schema: SlotSchema, dialogue: Dialogue, turn: int) -> Outcome:
        """The Outcome of one turn; an AuthError propagates."""
        prompt = render_prompt(schema, dialogue, turn, mode, char_budget=context_budget)
        request = GenerationRequest(prompt, max_output=max_output, temperature=temperature)
        try:
            reply = backend.generate(request)
        except AuthError:
            raise
        except BackendError as exc:
            return exc
        try:
            return parse_state_block(reply, schema).state
        except MissingValuesHeader:
            return None

    def record(d_index: int, dialogue: Dialogue, turn: int, outcome: Outcome) -> DialogueState:
        """Log one turn's state in stream order and return it."""
        nonlocal parse_failures, failed_turns
        if isinstance(outcome, BackendError):
            errors.append(f"{dialogue.id}:{turn}: {outcome}")
            failed_turns += 1
            state = DialogueState()
        elif outcome is None:
            parse_failures += 1
            state = DialogueState()
        else:
            state = outcome
        if dst_only and any(key not in schema for key in state.keys()):
            state = DialogueState(frozenset((k, v) for k, v in state.triples if k in schema))
        state_log.append(StateLogEntry(dialogue.id, turn, state, d_index))
        if refiner is not None:
            refiner.observe_state(state, d_index)
        return state

    if dst_only:
        stream = [(d_index, dialogue, turn) for d_index, dialogue in enumerate(order)
                  for turn in _tracked_turns(dialogue, mode)]
        with ordered_map(backend) as overlapped:
            outcomes = overlapped(lambda item: predict(schema, item[1], item[2]), stream)
            for (d_index, dialogue, turn), outcome in zip(stream, outcomes):
                record(d_index, dialogue, turn, outcome)
    else:
        for d_index, dialogue in enumerate(order):
            for turn in _tracked_turns(dialogue, mode):
                state = record(d_index, dialogue, turn, predict(schema, dialogue, turn))
                schema = schema_update(schema, state, discovered_at=(d_index, turn))
                if len(schema) > hard_cap:
                    raise SchemaOverflowError(
                        f"schema reached {len(schema)} slots (hard cap {hard_cap}) "
                        f"at dialogue {dialogue.id} turn {turn}"
                    )
            if refiner is not None:
                try:
                    schema = refiner.end_dialogue(schema, d_index)
                except AuthError:
                    raise
                except BackendError as exc:
                    errors.append(f"{dialogue.id}:refine: {exc}")
    return RunResult(
        final_schema=schema,
        state_log=tuple(state_log),
        parse_failures=parse_failures,
        seed=seed,
        errors=tuple(errors),
        failed_turns=failed_turns,
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
