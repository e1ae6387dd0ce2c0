"""Predicted-to-gold slot matching and adjusted precision/recall metrics.

Slots are compared as sets of (dialogue, turn, value) fills; a predicted
slot maps to the gold slot with the highest exact-match similarity, subject
to a 0.5 threshold (boundary inclusive). Redundant predictions onto one
gold slot count as precision errors.

A run is scored on its fills alone, grouped by scenario and slot key by
one fold, ``scenario_slots``, which also makes every refusal of a run. It
takes plain rows: each dialogue as its id, scenario id and user-turn gold
pairs, and each logged state as its dialogue id, turn and (key, value)
pairs. ``evaluate_run`` feeds it rows of loaded objects; ``load_run``
reads the two files into rows, through the ``seqio`` readers that build no
per-turn object. UPDATE mode targets come from ``seqio.gold_targets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .core import Dialogue, InvalidSlotName, SlotKey, SlotSchema, canonical_slot_key
from .seqio import (CorpusFile, CorpusFormatError, StateLogEntry, StateMode, gold_targets,
                    load_gold_states, load_json, load_logged_states, user_turn_states)

__all__ = [
    "ValuedSlot",
    "SlotMapping",
    "PRF",
    "MetricReport",
    "EmptyPredictedSlot",
    "InvalidGold",
    "UnknownScenario",
    "IncompleteMapping",
    "MATCH_THRESHOLD",
    "similarity_exact",
    "match_slots",
    "slot_prf",
    "value_prf",
    "collect_valued_slots",
    "gold_valued_slots",
    "scenario_slots",
    "corpus_slots",
    "score_slots",
    "evaluate_run",
    "load_run",
    "load_human_mapping",
    "mapping_agreement",
]

MATCH_THRESHOLD = 0.5

Fill = Tuple[str, int, str]  # (dialogue_id, turn_index, value)


class EmptyPredictedSlot(ValueError):
    """Similarity is undefined for a predicted slot with no fills."""


class InvalidGold(ValueError):
    """The gold side is empty or unusable."""


class UnknownScenario(ValueError):
    """Predictions name a dialogue, or a user turn of one, that the gold
    corpus lacks or the evaluated mode does not track."""


class IncompleteMapping(ValueError):
    """A human mapping file lacks a decision for some predicted slot."""


@dataclass(frozen=True)
class ValuedSlot:
    """A slot identity with the set of contexts and values that filled it.

    Values are stored verbatim and compared caselessly: the case-folded
    fills are computed once, with the slot.
    """

    key: SlotKey
    fills: frozenset = frozenset()  # of Fill

    def __post_init__(self) -> None:
        object.__setattr__(self, "fills", frozenset(self.fills))
        # not a dataclass field, so it takes no part in equality or repr
        folded = frozenset((d, t, v.casefold()) for d, t, v in self.fills)
        object.__setattr__(self, "_folded", folded)

    def folded_fills(self) -> frozenset:
        return self._folded


def _overlap(p: ValuedSlot, g: ValuedSlot) -> int:
    return len(p._folded & g._folded)


def similarity_exact(p: ValuedSlot, g: ValuedSlot) -> float:
    """Fraction of p's fills exactly (caselessly) present in g at the same
    (dialogue, turn) context."""
    if not p.fills:
        raise EmptyPredictedSlot(f"predicted slot {p.key} has no fills")
    return _overlap(p, g) / len(p.fills)


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class SlotMapping:
    """An assignment of predicted slot keys to gold slot keys.

    Each predicted key appears at most once; several predicted keys may map
    to one gold key (the slot precision formula penalizes this).
    ``valued_pairs`` holds the (predicted, gold) ValuedSlot of each pair,
    with the fills the value metrics read; it is excluded from equality.
    """

    pairs: Tuple[Tuple[SlotKey, SlotKey], ...] = ()
    unmatched_predicted: frozenset = frozenset()
    valued_pairs: Tuple[Tuple[ValuedSlot, ValuedSlot], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        # predicted -> gold index; not a dataclass field, so it takes no
        # part in equality or repr
        decisions = dict(self.pairs)
        if len(decisions) != len(self.pairs):
            raise ValueError("a predicted key appears in multiple mapping pairs")
        object.__setattr__(self, "_decisions", decisions)

    def predicted_keys(self) -> frozenset:
        return frozenset(self._decisions) | self.unmatched_predicted

    def decision(self, predicted: SlotKey) -> Optional[SlotKey]:
        return self._decisions.get(predicted)


def match_slots(P: Sequence[ValuedSlot], G: Sequence[ValuedSlot]) -> SlotMapping:
    """Map each predicted slot to its argmax-similarity gold slot.

    A predicted slot is unmatched when its best similarity falls below
    MATCH_THRESHOLD (strictly; similarity equal to it matches). Argmax
    ties break by larger fill overlap, then lexicographic gold key.
    """
    gold_keys = [g.key for g in G]
    if len(gold_keys) != len(set(gold_keys)):
        raise InvalidGold("gold slot keys must be unique")
    pairs: List[Tuple[ValuedSlot, ValuedSlot]] = []
    unmatched: List[SlotKey] = []
    for p in sorted(P, key=lambda s: s.key):
        if not p.fills or not G:
            unmatched.append(p.key)
            continue
        # similarity is overlap / |p.fills|, so for a fixed p it rises with the
        # overlap: the argmax over (similarity, overlap) with the smallest-key
        # tie-break is the min over (-overlap, key)
        neg_overlap, _, best = min((-_overlap(p, g), g.key, g) for g in G)
        if -neg_overlap / len(p.fills) < MATCH_THRESHOLD:
            unmatched.append(p.key)
        else:
            pairs.append((p, best))
    return SlotMapping(tuple((p.key, g.key) for p, g in pairs), frozenset(unmatched), tuple(pairs))


def slot_prf(mapping: SlotMapping, P: Sequence[ValuedSlot], G: Sequence[ValuedSlot]) -> PRF:
    """Slot precision/recall: distinct mapped gold slots over |P| and |G|."""
    if len(G) == 0:
        raise InvalidGold("gold slot set is empty")
    matched_gold = {g for _, g in mapping.pairs}
    if len(P) == 0:
        return PRF(0.0, 0.0, 0.0, degenerate=True)
    precision = len(matched_gold) / len(P)
    recall = len(matched_gold) / len(G)
    return PRF(precision, recall, _f1(precision, recall))


def value_prf(mapping: SlotMapping) -> PRF:
    """Value precision/recall summed over matched pairs only."""
    matched = mapping.valued_pairs
    if not matched:
        return PRF(0.0, 0.0, 0.0, degenerate=True)
    overlap = sum(_overlap(p, g) for p, g in matched)
    total_p = sum(len(p.fills) for p, _ in matched)
    total_g = sum(len(g.fills) for _, g in matched)
    precision = overlap / total_p if total_p else 0.0
    recall = overlap / total_g if total_g else 0.0
    return PRF(precision, recall, _f1(precision, recall))


def _add_fills(fills: Dict[SlotKey, set], dialogue_id: str, turn_index: int,
               pairs: Iterable[Tuple[SlotKey, str]]) -> None:
    """Add each (key, value) of ``pairs`` to ``fills`` as the fill
    (dialogue_id, turn_index, value) of its key."""
    for key, value in pairs:
        fills.setdefault(key, set()).add((dialogue_id, turn_index, value))


def _add_gold(fills: Dict[SlotKey, set], dialogue_id: str, user_states: Sequence,
              mode: StateMode) -> FrozenSet[int]:
    """Add the fills of a dialogue's gold targets in ``mode``, given its
    ``user_turn_states``; return the turns ``mode`` tracks."""
    tracked = []
    for i, target in gold_targets(user_states, mode):
        tracked.append(i)
        if target is not None:
            _add_fills(fills, dialogue_id, i, target)
    return frozenset(tracked)


def _valued(fills: Dict[SlotKey, set]) -> List[ValuedSlot]:
    return [ValuedSlot(key, events) for key, events in sorted(fills.items())]


def collect_valued_slots(state_log: Iterable[StateLogEntry]) -> List[ValuedSlot]:
    """Group a run's per-turn states into per-slot fill sets."""
    fills: Dict[SlotKey, set] = {}
    for entry in state_log:
        _add_fills(fills, entry.dialogue_id, entry.turn_index, entry.state.triples)
    return _valued(fills)


def gold_valued_slots(dialogues: Sequence[Dialogue], mode: StateMode) -> List[ValuedSlot]:
    """Group the gold targets of the turns ``mode`` tracks into per-slot
    fill sets."""
    fills: Dict[SlotKey, set] = {}
    for d in dialogues:
        _add_gold(fills, d.id, user_turn_states(d), mode)
    return _valued(fills)


def scenario_slots(
    mode: StateMode, gold_schema: Optional[SlotSchema], dialogues: Iterable, entries: Iterable
) -> Dict[str, Tuple[List[ValuedSlot], List[ValuedSlot]]]:
    """The predicted and the gold slots of each scenario, in scenario order:
    the gold targets of the turns ``mode`` tracks, given each dialogue as
    (id, scenario id, ``user_turn_states``), and the run's logged states,
    given each as (dialogue id, turn index, (key, value) pairs). Raises, in
    this order: InvalidGold for a corpus without a gold schema,
    UnknownScenario for the first entry at a dialogue, or a turn of one,
    that the corpus lacks or ``mode`` does not track, and InvalidGold for
    the first scenario without gold fills or a corpus without dialogues."""
    if gold_schema is None:
        raise InvalidGold("gold corpus has no gold schema")
    gold: Dict[str, Dict[SlotKey, set]] = {}
    predicted: Dict[str, Dict[SlotKey, set]] = {}
    # dialogue id -> (its scenario's predicted fills, user turns, tracked turns)
    turns: Dict[str, Tuple[Dict[SlotKey, set], FrozenSet[int], FrozenSet[int]]] = {}
    for dialogue_id, scenario_id, user_states in dialogues:
        tracked = _add_gold(gold.setdefault(scenario_id, {}), dialogue_id, user_states, mode)
        turns[dialogue_id] = (predicted.setdefault(scenario_id, {}),
                              frozenset(i for i, _ in user_states), tracked)
    for dialogue_id, turn_index, pairs in entries:
        known = turns.get(dialogue_id)
        if known is None:
            raise UnknownScenario(f"dialogue {dialogue_id!r} not present in gold corpus")
        if turn_index not in known[1]:
            raise UnknownScenario(f"dialogue {dialogue_id!r} turn {turn_index} "
                                  "is not a user turn in gold corpus")
        if turn_index not in known[2]:
            raise UnknownScenario(f"dialogue {dialogue_id!r} turn {turn_index} "
                                  f"is not tracked in {mode.value} mode")
        _add_fills(known[0], dialogue_id, turn_index, pairs)
    slots = {}
    for scenario_id in sorted(gold):
        G = _valued(gold[scenario_id])
        if not G:
            raise InvalidGold(f"scenario {scenario_id!r} has no gold fills")
        slots[scenario_id] = (_valued(predicted[scenario_id]), G)
    if not slots:
        raise InvalidGold("gold corpus contains no dialogues")
    return slots


def corpus_slots(
    slots: Mapping[str, Tuple[Sequence[ValuedSlot], Sequence[ValuedSlot]]]
) -> Tuple[List[ValuedSlot], List[ValuedSlot]]:
    """The predicted and the gold slots over every scenario of
    ``scenario_slots``: each key's fills merged across scenarios."""
    merged: Tuple[Dict[SlotKey, set], Dict[SlotKey, set]] = ({}, {})
    for sides in slots.values():
        for fills, side in zip(merged, sides):
            for s in side:
                fills.setdefault(s.key, set()).update(s.fills)
    return _valued(merged[0]), _valued(merged[1])


@dataclass(frozen=True)
class MetricReport:
    """The six metrics, overall (macro across scenarios) and per scenario."""

    slot_p: float
    slot_r: float
    slot_f1: float
    value_p: float
    value_r: float
    value_f1: float
    per_scenario: Mapping[str, Tuple[float, float, float, float, float, float]] = field(
        default_factory=dict
    )

    def numbers(self) -> Tuple[float, ...]:
        return (self.slot_p, self.slot_r, self.slot_f1, self.value_p, self.value_r, self.value_f1)

    def to_obj(self) -> dict:
        return {
            "slot": {"precision": self.slot_p, "recall": self.slot_r, "f1": self.slot_f1},
            "value": {"precision": self.value_p, "recall": self.value_r, "f1": self.value_f1},
            "per_scenario": {
                sid: {
                    "slot": {"precision": n[0], "recall": n[1], "f1": n[2]},
                    "value": {"precision": n[3], "recall": n[4], "f1": n[5]},
                }
                for sid, n in sorted(self.per_scenario.items())
            },
            # always False; kept because perfbench/reference.json hash-compares metrics.json
            "replicate_mean": False,
        }

    def render_table(self) -> str:
        header = f"{'scenario':<24}{'Slot P':>8}{'Slot R':>8}{'Slot F1':>9}{'Val P':>8}{'Val R':>8}{'Val F1':>9}"
        rows = [header, "-" * len(header)]
        for sid, n in sorted(self.per_scenario.items()):
            rows.append(
                f"{sid:<24}{n[0]:>8.3f}{n[1]:>8.3f}{n[2]:>9.3f}{n[3]:>8.3f}{n[4]:>8.3f}{n[5]:>9.3f}"
            )
        n = self.numbers()
        rows.append(
            f"{'MEAN':<24}{n[0]:>8.3f}{n[1]:>8.3f}{n[2]:>9.3f}{n[3]:>8.3f}{n[4]:>8.3f}{n[5]:>9.3f}"
        )
        return "\n".join(rows)


def score_slots(
    slots: Mapping[str, Tuple[Sequence[ValuedSlot], Sequence[ValuedSlot]]]
) -> MetricReport:
    """Match and score each scenario's predicted slots against its gold
    slots, as ``scenario_slots`` gives them, and macro-average the
    metrics across scenarios."""
    per_scenario = {}
    for scenario_id, (P, G) in slots.items():
        mapping = match_slots(P, G)
        s = slot_prf(mapping, P, G)
        v = value_prf(mapping)
        per_scenario[scenario_id] = (
            s.precision, s.recall, s.f1, v.precision, v.recall, v.f1,
        )
    means = [sum(n[i] for n in per_scenario.values()) / len(per_scenario) for i in range(6)]
    return MetricReport(*means, per_scenario=per_scenario)


def evaluate_run(
    state_log: Iterable[StateLogEntry],
    gold_corpus: CorpusFile,
    mode: StateMode,
) -> MetricReport:
    """Score a run's state log against a gold corpus, macro-averaged across
    scenarios, through ``scenario_slots``, which raises on a run it refuses."""
    return score_slots(scenario_slots(
        mode, gold_corpus.gold_schema,
        ((d.id, d.scenario_id, user_turn_states(d)) for d in gold_corpus.dialogues),
        ((e.dialogue_id, e.turn_index, e.state.triples) for e in state_log)))


def load_run(predictions, gold_path) -> Tuple[Optional[SlotSchema], Iterator, Iterator]:
    """The gold schema, the dialogue rows and the logged-state rows that
    ``scenario_slots`` folds, read from a gold corpus file and then a state
    log file; only a CorpusFormatError is raised. The rows come as
    iterators over their lists, so each list is freed once it is folded."""
    gold_schema, dialogues = load_gold_states(gold_path)
    return gold_schema, iter(dialogues), iter(load_logged_states(predictions))


def _decided_key(where: str, slot) -> SlotKey:
    if not (isinstance(slot, dict) and isinstance(slot.get("domain"), str)
            and isinstance(slot.get("name"), str)):
        raise CorpusFormatError(f"{where}: needs a 'domain' and a 'name' string")
    try:
        return canonical_slot_key(slot["domain"], slot["name"])
    except InvalidSlotName as exc:
        raise CorpusFormatError(f"{where}: {exc}") from exc


def load_human_mapping(path) -> SlotMapping:
    """Load a human decisions file: each predicted slot maps to a gold slot
    or an explicit null for "no match". A file that is not a JSON object
    with a ``decisions`` list of such entries, that omits a ``gold``, or
    that decides a predicted slot twice, is a CorpusFormatError naming the
    file and, for a bad entry, its index."""
    obj = load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("decisions"), list):
        raise CorpusFormatError(f"{path}: no 'decisions' list")
    pairs = []
    unmatched = []
    decided = set()
    for i, decision in enumerate(obj["decisions"]):
        where = f"{path}: decisions[{i}]"
        if not isinstance(decision, dict):
            raise CorpusFormatError(f"{where}: not an object")
        predicted = _decided_key(f"{where}.predicted", decision.get("predicted"))
        if predicted in decided:
            raise CorpusFormatError(f"{where}.predicted: {predicted} decided twice")
        decided.add(predicted)
        if "gold" not in decision:
            raise CorpusFormatError(f"{where}: needs a 'gold' slot or null")
        if decision["gold"] is None:
            unmatched.append(predicted)
        else:
            pairs.append((predicted, _decided_key(f"{where}.gold", decision["gold"])))
    return SlotMapping(tuple(pairs), frozenset(unmatched))


def mapping_agreement(auto: SlotMapping, human: SlotMapping) -> float:
    """Fraction of predicted slots whose auto decision matches the human's.

    The human mapping must cover every predicted key of the auto mapping;
    an empty predicted set yields agreement 1.0.
    """
    predicted = auto.predicted_keys()
    if not predicted:
        return 1.0
    covered = human.predicted_keys()
    missing = predicted - covered
    if missing:
        raise IncompleteMapping(
            f"human mapping lacks decisions for: {sorted(map(str, missing))}"
        )
    agree = sum(1 for key in predicted if auto.decision(key) == human.decision(key))
    return agree / len(predicted)
