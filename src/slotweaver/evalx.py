"""Predicted-to-gold slot matching and adjusted precision/recall metrics.

Slots are compared as sets of (dialogue, turn, value) fills; a predicted
slot maps to the gold slot with the highest exact-match similarity, subject
to a 0.5 threshold (boundary inclusive). Redundant predictions onto one
gold slot count as precision errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .core import Dialogue, DialogueState, InvalidSlotName, SlotKey, canonical_slot_key
from .seqio import (CorpusFile, CorpusFormatError, StateLogEntry, StateMode, gold_turns,
                    load_json, tracked_turns)

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
    "evaluate_run",
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


def _valued_slots(states: Iterable[Tuple[str, int, DialogueState]]) -> List[ValuedSlot]:
    """Group (dialogue id, turn index, state) triples into per-slot fill
    sets, in key order."""
    fills: Dict[SlotKey, set] = {}
    for dialogue_id, turn_index, state in states:
        for key, value in state.triples:
            fills.setdefault(key, set()).add((dialogue_id, turn_index, value))
    return [ValuedSlot(key, frozenset(events)) for key, events in sorted(fills.items())]


def collect_valued_slots(state_log: Iterable[StateLogEntry]) -> List[ValuedSlot]:
    """Group a run's per-turn states into per-slot fill sets."""
    return _valued_slots((e.dialogue_id, e.turn_index, e.state) for e in state_log)


def gold_valued_slots(dialogues: Sequence[Dialogue], mode: StateMode) -> List[ValuedSlot]:
    """Group the gold targets of the turns ``mode`` tracks into per-slot
    fill sets."""
    return _valued_slots(
        (d.id, i, target) for d in dialogues for i, _, target in gold_turns(d, mode)
    )


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


def evaluate_run(
    state_log: Iterable[StateLogEntry],
    gold_corpus: CorpusFile,
    mode: StateMode,
) -> MetricReport:
    """Score a run's state log against a gold corpus, macro-averaged across
    scenarios. An entry at a dialogue, or a turn of one, that the corpus
    lacks or that ``mode`` does not track raises UnknownScenario."""
    if gold_corpus.gold_schema is None:
        raise InvalidGold("gold corpus has no gold schema")
    dialogue_scenario = {d.id: d.scenario_id for d in gold_corpus.dialogues}
    user_turns = {d.id: frozenset(d.user_turn_indices()) for d in gold_corpus.dialogues}
    tracked = {d.id: frozenset(tracked_turns(d, mode)) for d in gold_corpus.dialogues}
    dialogues_by_scenario: Dict[str, list] = {}
    for d in gold_corpus.dialogues:
        dialogues_by_scenario.setdefault(d.scenario_id, []).append(d)
    entries_by_scenario: Dict[str, list] = {sid: [] for sid in dialogues_by_scenario}
    for entry in state_log:
        if entry.dialogue_id not in dialogue_scenario:
            raise UnknownScenario(f"dialogue {entry.dialogue_id!r} not present in gold corpus")
        if entry.turn_index not in user_turns[entry.dialogue_id]:
            raise UnknownScenario(f"dialogue {entry.dialogue_id!r} turn {entry.turn_index} "
                                  "is not a user turn in gold corpus")
        if entry.turn_index not in tracked[entry.dialogue_id]:
            raise UnknownScenario(f"dialogue {entry.dialogue_id!r} turn {entry.turn_index} "
                                  f"is not tracked in {mode.value} mode")
        entries_by_scenario[dialogue_scenario[entry.dialogue_id]].append(entry)

    per_scenario = {}
    for scenario_id, entries in sorted(entries_by_scenario.items()):
        G = gold_valued_slots(dialogues_by_scenario[scenario_id], mode)
        if not G:
            raise InvalidGold(f"scenario {scenario_id!r} has no gold fills")
        P = collect_valued_slots(entries)
        mapping = match_slots(P, G)
        s = slot_prf(mapping, P, G)
        v = value_prf(mapping)
        per_scenario[scenario_id] = (
            s.precision, s.recall, s.f1, v.precision, v.recall, v.f1,
        )
    if not per_scenario:
        raise InvalidGold("gold corpus contains no dialogues")
    means = [sum(n[i] for n in per_scenario.values()) / len(per_scenario) for i in range(6)]
    return MetricReport(*means, per_scenario=per_scenario)


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
