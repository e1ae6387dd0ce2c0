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
    tracked_turns,
)

__all__ = [
    "RunResult",
    "StateLogEntry",
    "SchemaOverflowError",
    "run_induction",
    "run_two_pass",
    "HARD_CAP",
]

HARD_CAP = 300  # absolute schema size guard, independent of refiners

# What predicting one turn gives: its state, None for a reply without a
# values header, or the error of a failed backend call.
Outcome = Union[DialogueState, BackendError, None]


class SchemaOverflowError(RuntimeError):
    """The schema exceeded the hard size cap; the run is aborted."""


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


def run_induction(
    corpus: CorpusFile,
    mode: StateMode,
    refiner: Optional[Refiner],
    backend: Backend,
    seed: Optional[int] = None,
    initial_schema: Optional[SlotSchema] = None,
    dst_only: bool = False,
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

    The call settings are fixed: each prompt is ``render_prompt``'s, which
    keeps at most ``seqio.CONTEXT_BUDGET`` characters of dialogue, and is
    sent with the defaults of ``GenerationRequest`` (1024 output tokens,
    temperature 0). A schema that grows past ``HARD_CAP`` slots raises
    SchemaOverflowError.
    """
    schema = initial_schema if initial_schema is not None else SlotSchema()
    order = list(corpus.dialogues)
    if seed is not None:
        random.Random(seed).shuffle(order)
    state_log: List[StateLogEntry] = []
    errors: List[str] = []
    parse_failures = failed_turns = 0

    def predict(schema: SlotSchema, dialogue: Dialogue, turn: int) -> Outcome:
        """The Outcome of one turn; an AuthError propagates."""
        prompt = render_prompt(schema, dialogue, turn)
        try:
            reply = backend.generate(GenerationRequest(prompt))
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
        # against a frozen schema, the discoveries are the keys outside it
        discovered = state.new_slot_descriptions
        if dst_only and discovered:
            state = DialogueState(frozenset(kv for kv in state.triples if kv[0] not in discovered))
        state_log.append(StateLogEntry(dialogue.id, turn, state, d_index))
        if refiner is not None:
            refiner.observe_state(state, d_index)
        return state

    if dst_only:
        stream = [(d_index, dialogue, turn) for d_index, dialogue in enumerate(order)
                  for turn in tracked_turns(dialogue, mode)]
        with ordered_map(backend) as overlapped:
            outcomes = overlapped(lambda item: predict(schema, item[1], item[2]), stream)
            for (d_index, dialogue, turn), outcome in zip(stream, outcomes):
                record(d_index, dialogue, turn, outcome)
    else:
        for d_index, dialogue in enumerate(order):
            for turn in tracked_turns(dialogue, mode):
                state = record(d_index, dialogue, turn, predict(schema, dialogue, turn))
                schema = schema_update(schema, state, discovered_at=(d_index, turn))
                if len(schema) > HARD_CAP:
                    raise SchemaOverflowError(
                        f"schema reached {len(schema)} slots (hard cap {HARD_CAP}) "
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
) -> Tuple[SlotSchema, RunResult]:
    """Induce the final schema (pass 1), then re-track every state against
    the frozen schema in DST mode (pass 2), both with the fixed settings of
    ``run_induction``. Pass-2 states are the ones used for evaluation."""
    pass1 = run_induction(corpus, mode, refiner, backend, seed=seed)
    pass2 = run_induction(
        corpus,
        mode,
        refiner=None,
        backend=backend,
        seed=seed,
        initial_schema=pass1.final_schema,
        dst_only=True,
    )
    return pass1.final_schema, pass2
