"""Predicted-to-gold slot matching and adjusted precision/recall metrics.

Slots are compared as sets of (dialogue, turn, value) fills; a predicted
slot maps to the gold slot with the highest exact-match similarity, subject
to a 0.5 threshold (boundary inclusive). Redundant predictions onto one
gold slot count as precision errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .core import Dialogue, InvalidSlotName, SlotKey, SlotSchema, canonical_slot_key
from .seqio import CorpusFile, CorpusFormatError, StateLogEntry, StateMode, gold_turns, read_utf8

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


class UnknownScenario(KeyError):
    """Predictions reference a dialogue/scenario absent from the gold corpus."""


class IncompleteMapping(ValueError):
    """A human mapping file lacks a decision for some predicted slot."""


@dataclass(frozen=True)
class ValuedSlot:
    """A slot identity with the set of contexts and values that filled it.

    Values are stored verbatim and compared caselessly.
    """

    key: SlotKey
    fills: frozenset = frozenset()  # of Fill

    def __post_init__(self) -> None:
        object.__setattr__(self, "fills", frozenset(self.fills))

    def folded_fills(self) -> frozenset:
        return frozenset((d, t, v.casefold()) for d, t, v in self.fills)


def _overlap(p: ValuedSlot, g: ValuedSlot) -> int:
    return len(p.folded_fills() & g.folded_fills())


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
    to one gold key (the slot precision formula penalizes this). The slot
    index retains the underlying fills for value metrics and is excluded
    from equality.
    """

    pairs: Tuple[Tuple[SlotKey, SlotKey], ...] = ()
    unmatched_predicted: frozenset = frozenset()
    similarity_threshold: float = MATCH_THRESHOLD
    slot_index: Mapping[str, Mapping[SlotKey, ValuedSlot]] = field(
        default_factory=dict, compare=False
    )

    def __post_init__(self) -> None:
        predicted = [p for p, _ in self.pairs]
        if len(predicted) != len(set(predicted)):
            raise ValueError("a predicted key appears in multiple mapping pairs")

    def predicted_keys(self) -> frozenset:
        return frozenset(p for p, _ in self.pairs) | self.unmatched_predicted

    def decision(self, predicted: SlotKey) -> Optional[SlotKey]:
        for p, g in self.pairs:
            if p == predicted:
                return g
        return None

    def matched_valued_pairs(self) -> List[Tuple[ValuedSlot, ValuedSlot]]:
        pred_index = self.slot_index.get("predicted", {})
        gold_index = self.slot_index.get("gold", {})
        return [(pred_index[p], gold_index[g]) for p, g in self.pairs]


def match_slots(
    P: Sequence[ValuedSlot],
    G: Sequence[ValuedSlot],
    threshold: float = MATCH_THRESHOLD,
) -> SlotMapping:
    """Map each predicted slot to its argmax-similarity gold slot.

    A predicted slot is unmatched when its best similarity falls below the
    threshold (strictly; similarity equal to the threshold matches). Argmax
    ties break by larger fill overlap, then lexicographic gold key.
    """
    gold_keys = [g.key for g in G]
    if len(gold_keys) != len(set(gold_keys)):
        raise InvalidGold("gold slot keys must be unique")
    gold_folded = [(g.key, g.folded_fills()) for g in G]
    pairs: List[Tuple[SlotKey, SlotKey]] = []
    unmatched: List[SlotKey] = []
    for p in sorted(P, key=lambda s: s.key):
        if not p.fills or not G:
            unmatched.append(p.key)
            continue
        # similarity is overlap / |p.fills|, so for a fixed p it rises with the
        # overlap: the argmax over (similarity, overlap) with the smallest-key
        # tie-break is the min over (-overlap, key)
        folded = p.folded_fills()
        neg_overlap, best_key = min((-len(folded & fills), key) for key, fills in gold_folded)
        if -neg_overlap / len(p.fills) < threshold:
            unmatched.append(p.key)
        else:
            pairs.append((p.key, best_key))
    return SlotMapping(
        tuple(pairs),
        frozenset(unmatched),
        threshold,
        {"predicted": {s.key: s for s in P}, "gold": {s.key: s for s in G}},
    )


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
    matched = mapping.matched_valued_pairs()
    if not matched:
        return PRF(0.0, 0.0, 0.0, degenerate=True)
    overlap = sum(_overlap(p, g) for p, g in matched)
    total_p = sum(len(p.fills) for p, _ in matched)
    total_g = sum(len(g.fills) for _, g in matched)
    precision = overlap / total_p if total_p else 0.0
    recall = overlap / total_g if total_g else 0.0
    return PRF(precision, recall, _f1(precision, recall))


def collect_valued_slots(
    state_log: Iterable[StateLogEntry], schema: Optional[SlotSchema] = None
) -> List[ValuedSlot]:
    """Group a run's per-turn states into per-slot fill sets.

    When a schema is given, fills on keys outside it are ignored.
    """
    fills: Dict[SlotKey, set] = {}
    for entry in state_log:
        for key, value in entry.state.triples:
            if schema is not None and key not in schema:
                continue
            fills.setdefault(key, set()).add((entry.dialogue_id, entry.turn_index, value))
    return [ValuedSlot(key, frozenset(events)) for key, events in sorted(fills.items())]


def gold_valued_slots(
    dialogues: Sequence[Dialogue], mode: StateMode, schema: Optional[SlotSchema] = None
) -> List[ValuedSlot]:
    entries = [
        StateLogEntry(dialogue.id, turn_index, target)
        for dialogue in dialogues
        for turn_index, _, target in gold_turns(dialogue, mode)
    ]
    return collect_valued_slots(entries, schema)


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
    predicted_schema: Optional[SlotSchema] = None,
    threshold: float = MATCH_THRESHOLD,
) -> MetricReport:
    """Score a run's state log against a gold corpus, macro-averaged across
    scenarios."""
    if gold_corpus.gold_schema is None:
        raise InvalidGold("gold corpus has no gold schema")
    dialogue_scenario = {d.id: d.scenario_id for d in gold_corpus.dialogues}
    entries_by_scenario: Dict[str, list] = {d.scenario_id: [] for d in gold_corpus.dialogues}
    for entry in state_log:
        if entry.dialogue_id not in dialogue_scenario:
            raise UnknownScenario(f"dialogue {entry.dialogue_id!r} not present in gold corpus")
        entries_by_scenario[dialogue_scenario[entry.dialogue_id]].append(entry)

    per_scenario = {}
    for scenario_id, entries in sorted(entries_by_scenario.items()):
        dialogues = [d for d in gold_corpus.dialogues if d.scenario_id == scenario_id]
        G = gold_valued_slots(dialogues, mode)
        if not G:
            raise InvalidGold(f"scenario {scenario_id!r} has no gold fills")
        P = collect_valued_slots(entries, predicted_schema)
        mapping = match_slots(P, G, threshold)
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
    with a ``decisions`` list of such entries is a CorpusFormatError naming
    the file and, for a bad entry, its index."""
    try:
        obj = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("decisions"), list):
        raise CorpusFormatError(f"{path}: no 'decisions' list")
    pairs = []
    unmatched = []
    for i, decision in enumerate(obj["decisions"]):
        where = f"{path}: decisions[{i}]"
        if not isinstance(decision, dict):
            raise CorpusFormatError(f"{where}: not an object")
        predicted = _decided_key(f"{where}.predicted", decision.get("predicted"))
        if decision.get("gold") is None:
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
