"""Schema refinement: confidence-window filtering, FIFO/priority eviction,
generative schema revision, and the noise generator for revision training.

The filters and the revision helpers are pure functions of their inputs
(plus an explicit seed). Fill statistics are one mutable table: a stats
refiner owns its ``SlotStats`` for a single run, and ``record_state``
updates that table in place.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .core import GOLD, DialogueState, SlotDef, SlotKey, SlotSchema, schema_update
from .seqio import (
    CorpusFile,
    MissingGoldError,
    MissingTypesHeader,
    StateLogEntry,
    parse_schema_block,
    render_revision_prompt,
    render_schema_block,
    user_turn_states,
)

# logging and the backend load only when a schema revision runs: the CLI
# imports this module for the refiner names, and evaluate runs neither.
if TYPE_CHECKING:
    from .backend import Backend

__all__ = [
    "SlotStats",
    "FilterConfig",
    "NoiseStrategy",
    "NOISE_VARIANTS",
    "record_state",
    "confidence_filter",
    "fifo_filter",
    "priority_filter",
    "make_revision_example",
    "build_revision_pairs",
    "revise_schema",
    "Refiner",
    "SlotConfidenceRefiner",
    "FifoRefiner",
    "PriorityRefiner",
    "RevisionRefiner",
    "REFINERS",
    "refiner_class",
    "make_refiner",
]


class SlotStats(Dict[SlotKey, List[int]]):
    """Per-slot fill statistics across a dialogue stream: each slot key maps
    to the dialogue indices it was filled in, at most one per dialogue, in
    the order recorded. The first entry is the discovery dialogue and the
    last the most recent fill. A stream is recorded in ascending order, which
    the window count of ``confidence_filter`` relies on."""


def record_state(stats: SlotStats, state: DialogueState, dialogue_index: int) -> SlotStats:
    """Count one fill event per valued slot, at most once per dialogue.
    Updates ``stats`` in place and returns it."""
    for key, _ in state.triples:  # one value per key
        fills = stats.setdefault(key, [])
        if not fills or fills[-1] != dialogue_index:
            fills.append(dialogue_index)
    return stats


@dataclass(frozen=True)
class FilterConfig:
    window_w: int = 10
    threshold_tau: int = 1
    cap: int = 100

    def __post_init__(self) -> None:
        for name in ("window_w", "threshold_tau", "cap"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError("window_w, threshold_tau, and cap must all be >= 1 and "
                                 f"integers, got {name}={value!r}")


def _eviction_order(schema: SlotSchema, stats: SlotStats, primary) -> List[SlotDef]:
    def sort_key(slot: SlotDef):
        fills = stats.get(slot.key, ())
        return (primary(fills), fills[0] if fills else -1, slot.key)

    return sorted(schema, key=sort_key)


def confidence_filter(
    schema: SlotSchema, stats: SlotStats, cfg: FilterConfig, current_dialogue: int
) -> SlotSchema:
    """Drop slots with fewer than tau fills in the last w dialogues.

    Runs at a dialogue boundary after processing ``current_dialogue``. Slots
    younger than w dialogues keep a grace period, and gold-seeded slots are
    never evicted. The counted window is (current - w, current].
    """
    w, tau = cfg.window_w, cfg.threshold_tau
    floor = current_dialogue - w
    doomed = []
    for slot in schema:
        if slot.discovered_at == GOLD:
            continue
        fills = stats.get(slot.key)
        # a slot without fills was discovered at the current dialogue
        if not fills or fills[0] > floor:
            continue
        if len(fills) >= tau and fills[-tau] > floor and fills[-1] <= current_dialogue:
            continue  # the last tau fills are in the window
        recent = bisect_right(fills, current_dialogue) - bisect_right(fills, floor)
        if recent < tau:
            doomed.append(slot.key)
    return schema.without_keys(doomed)


def fifo_filter(schema: SlotSchema, stats: SlotStats, cfg: FilterConfig) -> SlotSchema:
    """Evict least-recently-filled slots once the schema exceeds the cap."""
    if len(schema) <= cfg.cap:
        return schema
    order = _eviction_order(schema, stats, lambda fills: fills[-1] if fills else -1)
    doomed = [slot.key for slot in order[: len(schema) - cfg.cap]]
    return schema.without_keys(doomed)


def priority_filter(schema: SlotSchema, stats: SlotStats, cfg: FilterConfig) -> SlotSchema:
    """Evict least-frequently-updated slots when the schema reaches the cap.

    Shrinks to cap - 1 to leave room for the next discovery.
    """
    if len(schema) < cfg.cap:
        return schema
    order = _eviction_order(schema, stats, len)
    doomed = [slot.key for slot in order[: len(schema) - (cfg.cap - 1)]]
    return schema.without_keys(doomed)


NOISE_VARIANTS = ("no_noise", "add_noisy_subset", "mix_subsets")


@dataclass(frozen=True)
class NoiseStrategy:
    variant: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in NOISE_VARIANTS:
            raise ValueError(f"unknown noise variant: {self.variant!r}")

    @classmethod
    def draw(cls, rng: random.Random) -> "NoiseStrategy":
        """Draw a variant uniformly; the example seed comes from the same rng."""
        return cls(rng.choice(NOISE_VARIANTS), rng.randrange(2**31))


def _bernoulli_subset(slots, rng: random.Random) -> List[SlotDef]:
    # independent p=0.5 per element
    return [slot for slot in slots if rng.random() < 0.5]


def make_revision_example(
    gold: SlotSchema, noisy: SlotSchema, strategy: NoiseStrategy
) -> Tuple[SlotSchema, SlotSchema]:
    """Build one (input, target) schema pair for revision training.

    The target is always the gold schema; the input is gold corrupted per
    the strategy, with key collisions resolved in gold's favor and the final
    order shuffled by the strategy's seed.
    """
    if len(gold) == 0:
        raise ValueError("gold schema must be nonempty")
    rng = random.Random(strategy.seed)
    if strategy.variant == "no_noise":
        pool = list(gold)
    elif strategy.variant == "add_noisy_subset":
        pool = list(gold) + _bernoulli_subset(noisy, rng)
    else:  # mix_subsets
        pool = _bernoulli_subset(gold, rng) + _bernoulli_subset(noisy, rng)
    merged: Dict[SlotKey, SlotDef] = {}
    for slot in pool:
        merged.setdefault(slot.key, slot)
    slots = list(merged.values())
    rng.shuffle(slots)
    return SlotSchema(tuple(slots)), gold


REVISION_MAX_OUTPUT = 2048  # output limit of a revision call


def revise_schema(
    schema: SlotSchema,
    backend: Backend,
    position=None,
) -> SlotSchema:
    """Ask the backend to rewrite the schema; parse the reply as the new one.

    Surviving slots (matched canonically) keep their original discovery
    position; new or renamed slots get ``position``. A reply that lists the
    catalog unchanged returns the schema itself, and an unparseable one
    leaves it unchanged with a logged warning.
    """
    import logging

    from .backend import GenerationRequest

    log = logging.getLogger(__name__)
    prompt = render_revision_prompt(schema)
    response = backend.generate(GenerationRequest(prompt, max_output=REVISION_MAX_OUTPUT))
    try:
        revised, warnings = parse_schema_block(response)
    except MissingTypesHeader:
        log.warning("revision reply had no schema block; schema unchanged")
        return schema
    for warning in warnings:
        log.warning("revision parse: %s", warning)
    slots = []
    for slot in revised:
        original = schema.get(slot.key)
        provenance = original.discovered_at if original else (position if position is not None else GOLD)
        slots.append(SlotDef(slot.key, slot.description, provenance))
    result = SlotSchema(tuple(slots), schema.version + 1)
    return schema if render_schema_block(result) == render_schema_block(schema) else result


def build_revision_pairs(
    corpus: CorpusFile, noisy_states: Iterable[StateLogEntry], seed: int
) -> List[Tuple[str, str]]:
    """Build revision (prompt, target) pairs from a gold corpus and a prior
    run's noisy state log.

    Noisy states are aligned to gold positions by (dialogue id, turn index)
    and folded into a running noisy schema; for each user turn a noise
    strategy is drawn with the run seed and applied to the gold schema as
    introduced so far. Positions with an empty gold schema are skipped.
    """
    if corpus.gold_schema is None:
        raise MissingGoldError("corpus has no gold schema")
    noisy_by_position = {(e.dialogue_id, e.turn_index): e.state for e in noisy_states}

    rng = random.Random(seed)
    noisy_schema = SlotSchema()
    introduced: set = set()
    pairs: List[Tuple[str, str]] = []
    for dialogue in corpus.dialogues:
        for turn_index, gold_pairs in user_turn_states(dialogue):
            if gold_pairs is not None:
                introduced.update(key for key, _ in gold_pairs)
            noisy_state = noisy_by_position.get((dialogue.id, turn_index))
            if noisy_state is not None:
                noisy_schema = schema_update(noisy_schema, noisy_state)
            gold_t = corpus.gold_schema.restricted_to(introduced)
            if len(gold_t) == 0:
                continue
            strategy = NoiseStrategy.draw(rng)
            noised, target = make_revision_example(gold_t, noisy_schema, strategy)
            pairs.append((render_revision_prompt(noised), render_schema_block(target)))
    return pairs


# ---------------------------------------------------------------------------
# Stateful refiner wrappers for the induction engine
# ---------------------------------------------------------------------------


class Refiner:
    """Per-run refinement strategy: observes states, edits the schema at
    dialogue boundaries."""

    name: str

    def observe_state(self, state: DialogueState, dialogue_index: int) -> None:
        pass

    def end_dialogue(self, schema: SlotSchema, dialogue_index: int) -> SlotSchema:
        return schema

    def params(self) -> dict:
        return {}


class _StatsRefiner(Refiner):
    fields: Tuple[str, ...] = ()  # the FilterConfig fields its filter reads

    def __init__(self, cfg: FilterConfig):
        self.cfg = cfg
        self.stats = SlotStats()

    def observe_state(self, state: DialogueState, dialogue_index: int) -> None:
        record_state(self.stats, state, dialogue_index)

    def params(self) -> dict:
        return {name: getattr(self.cfg, name) for name in self.fields}


class SlotConfidenceRefiner(_StatsRefiner):
    name = "slot-conf"
    fields = ("window_w", "threshold_tau")

    def end_dialogue(self, schema: SlotSchema, dialogue_index: int) -> SlotSchema:
        return confidence_filter(schema, self.stats, self.cfg, dialogue_index)


class FifoRefiner(_StatsRefiner):
    name = "fifo"
    fields = ("cap",)

    def end_dialogue(self, schema: SlotSchema, dialogue_index: int) -> SlotSchema:
        return fifo_filter(schema, self.stats, self.cfg)


class PriorityRefiner(_StatsRefiner):
    name = "priority"
    fields = ("cap",)

    def end_dialogue(self, schema: SlotSchema, dialogue_index: int) -> SlotSchema:
        return priority_filter(schema, self.stats, self.cfg)


class RevisionRefiner(Refiner):
    name = "revision"

    def __init__(self, backend: Backend):
        self.backend = backend

    def end_dialogue(self, schema: SlotSchema, dialogue_index: int) -> SlotSchema:
        return revise_schema(schema, self.backend, position=(dialogue_index, -1))


# Every refiner by the name a run selects it with; "none" runs without one.
REFINERS = {"none": None, **{cls.name: cls for cls in (
    SlotConfidenceRefiner, FifoRefiner, PriorityRefiner, RevisionRefiner)}}


def refiner_class(name: str) -> Optional[type]:
    """The class REFINERS holds under ``name``; a ValueError for any other name."""
    if isinstance(name, str) and name in REFINERS:
        return REFINERS[name]
    raise ValueError(f"refiner must be one of {', '.join(REFINERS)}, got {name!r}")


def make_refiner(
    name: Optional[str],
    cfg: Optional[FilterConfig] = None,
    backend: Optional[Backend] = None,
) -> Optional[Refiner]:
    cls = refiner_class("none" if name is None else name)
    if cls is RevisionRefiner:
        if backend is None:
            raise ValueError("revision refiner requires a backend")
        return RevisionRefiner(backend)
    return cls(cfg or FilterConfig()) if cls else None
