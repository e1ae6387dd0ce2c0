"""The keyed schema, the by-domain grouping, the update-mode delta, the
gold-turn walker, the refiners' fill table, the interned slot keys, the
memoized catalog render and derived schemas, the block parsers and
renderers, the simulator's prompt templates and fenced-block retry, the
induction engine, the prompt's context budget, the mapping agreement, the
state-log reader, the evaluation path and the training and revision pair
builders against reference copies of the code they replaced, the ``evaluate`` command against the object route it
replaced, and the JSON writer ``canonical_json`` against ``json.dumps``, on
random inputs."""

import json
import logging
import pickle
import random
import re
import tempfile
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slotweaver import cli, evalx, induct, refine, seqio, sim
from slotweaver.backend import (
    AuthError,
    BackendError,
    GenerationRequest,
    ScriptedBackend,
    TransportError,
    ordered_map,
)
from slotweaver.core import (
    GOLD,
    Dialogue,
    DialogueState,
    InvalidSlotName,
    SlotDef,
    SlotKey,
    SlotSchema,
    Turn,
    canonical_slot_key,
    schema_update,
)
from slotweaver.evalx import SlotMapping, mapping_agreement
from slotweaver.refine import (FilterConfig, SlotStats, confidence_filter, make_refiner,
                               record_state)
from slotweaver.seqio import (
    CorpusFile,
    MissingTypesHeader,
    MissingValuesHeader,
    StateLogEntry,
    StateMode,
    canonical_json,
    gold_targets,
    parse_schema_block,
    parse_state_block,
    render_prompt,
    render_schema_block,
    render_state_block,
    schema_to_obj,
    user_turn_states,
)

from conftest import key

# A small vocabulary, so that random keys collide and domains repeat.
VOCABULARY = [key(d, n) for d in ("hotel", "train", "garden")
              for n in ("area", "price", "day", "style")]
keys = st.sampled_from(VOCABULARY)
slot_defs = st.builds(SlotDef, keys, st.sampled_from(["", "a thing", "the price"]))
values = st.sampled_from(["north", "cheap", "Cheap", "monday", "2"])
states = st.dictionaries(keys, values, max_size=6).map(
    lambda d: DialogueState.from_pairs(d.items())
)


def schema_of(slots):
    unique = {}
    for slot in slots:
        unique.setdefault(slot.key, slot)
    return SlotSchema(tuple(unique.values()))


schemas = st.lists(slot_defs, max_size=10).map(schema_of)


# --- reference copies of the replaced code ---------------------------------


def ref_contains(schema, k):
    return any(slot.key == k for slot in schema.slots)


def ref_get(schema, k):
    for slot in schema.slots:
        if slot.key == k:
            return slot
    return None


def ref_with_slots(schema, new_slots):
    existing = set(schema.keys())
    added = []
    for slot in new_slots:
        if slot.key not in existing:
            added.append(slot)
            existing.add(slot.key)
    if not added:
        return schema
    return SlotSchema(schema.slots + tuple(added), schema.version + 1)


def ref_domains(schema):
    out = []
    for slot in schema.slots:
        if slot.key.domain not in out:
            out.append(slot.key.domain)
    return tuple(out)


def ref_grouping(schema):
    return [
        (domain, [slot for slot in schema if slot.key.domain == domain])
        for domain in ref_domains(schema)
    ]


def ref_value_of(state, k):
    for kk, v in state.triples:
        if kk == k:
            return v
    return None


def ref_delta(state, prev):
    return DialogueState(
        frozenset((k, v) for k, v in state.triples if ref_value_of(prev, k) != v)
    )


def ref_gold_state_stream(dialogue, mode):
    if mode is StateMode.FINAL:
        indices = dialogue.user_turn_indices()
        if indices and dialogue.turns[indices[-1]].gold_state is not None:
            yield indices[-1], dialogue.turns[indices[-1]].gold_state
        return
    prev = DialogueState()
    for i in dialogue.user_turn_indices():
        state = dialogue.turns[i].gold_state
        if state is None:
            continue
        yield i, ref_delta(state, prev) if mode is StateMode.UPDATE else state
        prev = state


# The copy-on-write fill statistics and the filters that read them, as they
# were before the fill table replaced them.


@dataclass(frozen=True)
class RefSlotRecord:
    fill_events: Tuple[int, ...]
    discovered_at: int

    @property
    def global_count(self) -> int:
        return len(self.fill_events)

    @property
    def last_filled(self) -> int:
        return self.fill_events[-1] if self.fill_events else -1


@dataclass(frozen=True)
class RefSlotStats:
    records: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", MappingProxyType(dict(self.records)))

    def get(self, k) -> Optional[RefSlotRecord]:
        return self.records.get(k)


def ref_record_state(stats, state, dialogue_index):
    if not state.triples:
        return stats
    records = dict(stats.records)
    for k in state.keys():
        rec = records.get(k)
        if rec is None:
            records[k] = RefSlotRecord((dialogue_index,), dialogue_index)
        elif rec.last_filled != dialogue_index:
            records[k] = RefSlotRecord(rec.fill_events + (dialogue_index,), rec.discovered_at)
    return RefSlotStats(records)


def ref_eviction_order(schema, stats, primary):
    def sort_key(slot):
        rec = stats.get(slot.key)
        discovered = rec.discovered_at if rec else -1
        return (primary(rec), discovered, slot.key)

    return sorted(schema, key=sort_key)


def ref_confidence_filter(schema, stats, cfg, current_dialogue):
    w, tau = cfg.window_w, cfg.threshold_tau
    doomed = []
    for slot in schema:
        if slot.discovered_at == GOLD:
            continue
        rec = stats.get(slot.key)
        discovered = rec.discovered_at if rec else current_dialogue
        if current_dialogue - discovered < w:
            continue
        fills = rec.fill_events if rec else ()
        recent = sum(1 for d in fills if current_dialogue - w < d <= current_dialogue)
        if recent < tau:
            doomed.append(slot.key)
    return schema.without_keys(doomed)


def ref_fifo_filter(schema, stats, cfg):
    if len(schema) <= cfg.cap:
        return schema
    order = ref_eviction_order(schema, stats, lambda rec: rec.last_filled if rec else -1)
    return schema.without_keys([slot.key for slot in order[: len(schema) - cfg.cap]])


def ref_priority_filter(schema, stats, cfg):
    if len(schema) < cfg.cap:
        return schema
    order = ref_eviction_order(schema, stats, lambda rec: rec.global_count if rec else 0)
    return schema.without_keys([slot.key for slot in order[: len(schema) - (cfg.cap - 1)]])


REF_FILTERS = {
    "slot-conf": ref_confidence_filter,
    "fifo": lambda schema, stats, cfg, d: ref_fifo_filter(schema, stats, cfg),
    "priority": lambda schema, stats, cfg, d: ref_priority_filter(schema, stats, cfg),
}


# --- properties --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(schemas, st.lists(keys, max_size=8))
def test_keyed_lookup_matches_scan(schema, probes):
    for k in probes + list(schema.keys()):
        assert (k in schema) == ref_contains(schema, k)
        assert schema.get(k) == ref_get(schema, k)


@settings(max_examples=150, deadline=None)
@given(schemas, st.lists(slot_defs, max_size=8))
def test_with_slots_matches_scan(schema, new_slots):
    # new_slots may repeat a key, or carry keys the schema already has
    got, want = schema.with_slots(new_slots), ref_with_slots(schema, new_slots)
    assert got == want
    assert got.version == want.version
    assert (got is schema) == (want is schema)
    for k in set(s.key for s in new_slots):
        assert (k in got) == ref_contains(want, k)
        assert got.get(k) == ref_get(want, k)


@settings(max_examples=150, deadline=None)
@given(schemas)
def test_by_domain_matches_per_domain_scan(schema):
    assert list(schema.by_domain().items()) == ref_grouping(schema)
    assert schema.domains() == ref_domains(schema)


@settings(max_examples=150, deadline=None)
@given(states, states)
def test_update_target_matches_value_of_filter(state, prev):
    targets = list(seqio.gold_targets([(0, prev.triples), (2, state.triples)], StateMode.UPDATE))
    assert targets[1] == (2, ref_delta(state, prev).triples)


def dialogue_of(user_states):
    turns = []
    for i, state in enumerate(user_states):
        turns.append(Turn("user", f"u{i}", state))
        turns.append(Turn("agent", f"a{i}"))
    return Dialogue("d1", "s1", tuple(turns))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.none() | states, max_size=6), st.sampled_from(list(StateMode)))
def test_gold_turns_matches_old_stream(user_states, mode):
    # None entries are user turns that carry no gold state
    dialogue = dialogue_of(user_states)
    targets = list(gold_targets(user_turn_states(dialogue), mode))
    assert [(i, target) for i, target in targets if target is not None] == [
        (i, state.triples) for i, state in ref_gold_state_stream(dialogue, mode)]
    assert [i for i, target in targets if target is None] == [
        i for i in seqio.tracked_turns(dialogue, mode) if dialogue.turns[i].gold_state is None]


# A stream: each dialogue advances the index by 0-3 (so it is nondecreasing,
# with repeats and gaps) and carries up to four predicted states.
streams = st.lists(
    st.tuples(st.integers(0, 3), st.lists(states, max_size=4)), max_size=25
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(REF_FILTERS)),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(1, 8),
    st.lists(keys, max_size=3),
    streams,
)
def test_refiners_match_copy_on_write_stats(name, w, tau, cap, gold_keys, stream):
    cfg = FilterConfig(window_w=w, threshold_tau=tau, cap=cap)
    refiner = make_refiner(name, cfg)
    seeded = schema_of([SlotDef(k, "", GOLD) for k in gold_keys])
    schema = ref_schema = seeded
    ref_stats = RefSlotStats()
    table = SlotStats()
    d = 0
    for gap, dialogue_states in stream:
        d += gap
        for t, state in enumerate(dialogue_states):
            schema = schema_update(schema, state, discovered_at=(d, t))
            ref_schema = schema_update(ref_schema, state, discovered_at=(d, t))
            refiner.observe_state(state, d)
            ref_stats = ref_record_state(ref_stats, state, d)
            assert record_state(table, state, d) is table
        schema = refiner.end_dialogue(schema, d)
        ref_schema = REF_FILTERS[name](ref_schema, ref_stats, cfg, d)
        assert schema == ref_schema
        assert schema.version == ref_schema.version
    want = {k: list(rec.fill_events) for k, rec in ref_stats.records.items()}
    assert table == want
    assert refiner.stats == want


# Slot keys and the catalog render as they were before keys were interned
# and hashed once and the render was kept on the schema.


@dataclass(frozen=True, order=True)
class RefSlotKey:
    domain: str
    name: str

    def __str__(self) -> str:
        return f"{self.domain}/{self.name}"


_REF_SEPARATOR_RUN = re.compile(r"[\s_]+")


def ref_canonical_text(text):
    return _REF_SEPARATOR_RUN.sub(" ", text).strip().lower()


def ref_canonical_slot_key(domain, name):
    cdomain = ref_canonical_text(domain)
    cname = ref_canonical_text(name)
    if not cdomain:
        raise InvalidSlotName(f"empty slot domain: {domain!r}")
    if not cname:
        raise InvalidSlotName(f"empty slot name: {name!r}")
    return RefSlotKey(cdomain, cname)


REF_TYPES_HEADER = "# Key Information Types"
REF_VALUES_HEADER = "# Key Information Values"


def ref_render_schema_block(schema):
    lines = [REF_TYPES_HEADER]
    for domain, slots in ref_grouping(schema):
        lines.append("")
        lines.append(f"## {domain.title()}")
        lines.extend(f"* {slot.key.name}: {slot.description}" for slot in slots)
    return "\n".join(lines)


def outcome(build, domain, name):
    """("key", key) or ("invalid", message) for one surface pair."""
    try:
        return "key", build(domain, name)
    except InvalidSlotName as exc:
        return "invalid", str(exc)


# Surface spellings: a few words in mixed case, separator runs, empty and
# blank parts, non-ASCII letters whose case mapping is not one to one, and
# arbitrary characters.
surface = st.lists(
    st.sampled_from(["hotel", "Hotel", "HOTEL", "price", "Price", "area", "Straße", "İzmir",
                     "ΣΊΣΥΦΟΣ", "é", " ", "  ", "_", "__", "\t", "\n", "\u00a0", ""])
    | st.text(max_size=3),
    max_size=5,
).map("".join)
pairs = st.lists(st.tuples(surface, surface), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_interned_keys_match_old_keys(surface_pairs):
    got = [outcome(canonical_slot_key, d, n) for d, n in surface_pairs]
    want = [outcome(ref_canonical_slot_key, d, n) for d, n in surface_pairs]
    for (kind, k), (ref_kind, ref) in zip(got, want):
        assert kind == ref_kind
        if kind == "invalid":
            assert k == ref
            continue
        assert type(k) is SlotKey
        assert (k.domain, k.name) == (ref.domain, ref.name)
        assert str(k) == str(ref)
        assert repr(k) == "SlotKey" + repr(ref)[len("RefSlotKey"):]
    # an invalid pair raises again: no exception is cached
    assert [outcome(canonical_slot_key, d, n) for d, n in surface_pairs] == got
    keys_ = [(k, ref) for (kind, k), (_, ref) in zip(got, want) if kind == "key"]
    for a, ref_a in keys_:
        for b, ref_b in keys_:
            assert (a == b) == (ref_a == ref_b)
            assert (a < b) == (ref_a < ref_b)
            assert (a <= b) == (ref_a <= ref_b)
            if a == b:
                assert hash(a) == hash(b)
        # a directly built key is equal, hashes equal and sorts the same
        direct = SlotKey(a.domain, a.name)
        assert direct == a and hash(direct) == hash(a) and not direct < a


@settings(max_examples=200, deadline=None)
@given(surface, surface, st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_pickled_key_round_trips(domain, name, protocol):
    kind, k = outcome(canonical_slot_key, domain, name)
    if kind == "invalid":
        return
    back = pickle.loads(pickle.dumps(k, protocol))
    assert back == k and hash(back) == hash(k)
    assert {k: 1}[back] == 1


# discoveries with descriptions, as a reply's values block gives them
discovering_states = st.builds(
    lambda pairs, described: DialogueState.from_pairs(
        pairs.items(), {k: d for k, d in described.items() if k in pairs}),
    st.dictionaries(keys, values, max_size=4),
    st.dictionaries(keys, st.sampled_from(["", "a thing"]), max_size=4),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("with_slots"), st.lists(slot_defs, max_size=4)),
        st.tuples(st.just("without_keys"), st.lists(keys, max_size=4)),
        st.tuples(st.just("restricted_to"), st.lists(keys, max_size=8)),
        st.tuples(st.just("schema_update"), discovering_states),
    ),
    max_size=8,
)


def apply_op(schema, op, arg):
    if op == "schema_update":
        return schema_update(schema, arg, discovered_at=(0, 0))
    return getattr(schema, op)(arg)


# hotel's first slot is evicted while hotel/price stays, so hotel moves
# behind train; garden is evicted whole, then rediscovered by an update
_evictions = [
    ("without_keys", [key("hotel", "area")]),
    ("without_keys", [key("garden", "style")]),
    ("schema_update", DialogueState.from_pairs([(key("garden", "day"), "monday")],
                                               {key("garden", "day"): "a thing"})),
    ("with_slots", [SlotDef(key("hotel", "area"), "the price")]),
    ("restricted_to", [key("hotel", "area"), key("garden", "day"), key("train", "day")]),
]
_four_domains = schema_of([SlotDef(key("hotel", "area")), SlotDef(key("train", "day"), "a thing"),
                           SlotDef(key("hotel", "price")), SlotDef(key("garden", "style"))])


@settings(max_examples=200, deadline=None)
@given(schemas, _ops, st.lists(st.booleans(), min_size=9, max_size=9))
@example(_four_domains, _evictions, [True] * 9)
@example(_four_domains, _evictions, [False, True] * 4 + [False])
def test_cached_render_matches_old_render(schema, ops, early):
    chain = [schema]
    for op, arg in ops:
        chain.append(apply_op(chain[-1], op, arg))
    # a derived schema's own index and grouping are those of its slots
    for s in chain:
        assert list(s.by_domain().items()) == ref_grouping(s)
        assert s.domains() == ref_domains(s)
        for k in VOCABULARY:
            assert (k in s) == ref_contains(s, k)
            assert s.get(k) == ref_get(s, k)
    # render some schemas of the chain first, then every schema, twice: no
    # memo goes stale or leaks from one schema to another
    for s, first in zip(chain, early):
        if first:
            assert render_schema_block(s) == ref_render_schema_block(s)
    for _ in range(2):
        for s in chain:
            assert render_schema_block(s) == ref_render_schema_block(s)


# --- the two block parsers and the values-block renderer --------------------


def ref_parse_schema_block(text):
    lines = text.splitlines()
    try:
        start = next(i for i, ln in enumerate(lines) if ln.strip() == REF_TYPES_HEADER)
    except StopIteration:
        raise MissingTypesHeader(f"no {REF_TYPES_HEADER!r} line found") from None
    warnings = []
    seen = {}
    domain = None
    for lineno, raw in enumerate(lines[start + 1 :], start=start + 2):
        line = raw.strip()
        if not line:
            continue
        if line == "##" or line.startswith("## "):  # stated change: a bare ``##`` is a header
            domain = line[3:].strip()
            if not domain:
                warnings.append(f"line {lineno}: empty domain header")
                domain = None
            continue
        if line.startswith("# "):
            break
        if line.startswith("* "):
            if domain is None:
                warnings.append(f"line {lineno}: bullet outside any domain section")
                continue
            name, sep, description = line[2:].partition(":")
            if not sep:
                warnings.append(f"line {lineno}: bullet without colon: {line!r}")
                continue
            try:
                k = canonical_slot_key(domain, name)
            except InvalidSlotName:
                warnings.append(f"line {lineno}: empty slot name")
                continue
            if k in seen:
                warnings.append(f"line {lineno}: duplicate slot {k}")
            seen[k] = SlotDef(k, description.strip())
            continue
        warnings.append(f"line {lineno}: unrecognized line {line!r}")
    return SlotSchema(tuple(seen.values())), warnings


def ref_parse_state_block(text, known_schema):
    lines = text.splitlines()
    try:
        start = next(i for i, ln in enumerate(lines) if ln.strip() == REF_VALUES_HEADER)
    except StopIteration:
        raise MissingValuesHeader(f"no {REF_VALUES_HEADER!r} line found") from None
    warnings = []
    values = {}
    descriptions = {}
    domain = None
    last_key = None
    for lineno, raw in enumerate(lines[start + 1 :], start=start + 2):
        line = raw.strip()
        if not line:
            continue
        if line == "##" or line.startswith("## "):  # stated change: a bare ``##`` is a header
            domain = line[3:].strip() or None
            if domain is None:
                warnings.append(f"line {lineno}: empty domain header")
            last_key = None
            continue
        if line.startswith("# "):
            break
        if line.startswith("* "):
            last_key = None
            if domain is None:
                warnings.append(f"line {lineno}: value bullet outside any domain section")
                continue
            name, sep, value = line[2:].partition(":")
            if not sep:
                warnings.append(f"line {lineno}: bullet without colon: {line!r}")
                continue
            try:
                k = canonical_slot_key(domain, name)
            except InvalidSlotName:
                warnings.append(f"line {lineno}: empty slot name")
                continue
            if k in values:
                warnings.append(f"line {lineno}: duplicate value for {k}, keeping last")
                descriptions.pop(k, None)
            values[k] = value.strip()
            last_key = k
            continue
        if line.startswith("-"):
            description = line[1:].strip()
            if last_key is None:
                warnings.append(f"line {lineno}: description line without preceding bullet")
            elif last_key in known_schema:
                warnings.append(
                    f"line {lineno}: description attached to known slot {last_key}, ignored"
                )
            else:
                descriptions[last_key] = description
            last_key = None
            continue
        warnings.append(f"line {lineno}: unrecognized line {line!r}")
        last_key = None
    new_descriptions = {k: descriptions.get(k, "") for k in values if k not in known_schema}
    return DialogueState.from_pairs(values.items(), new_descriptions), tuple(warnings)


def ref_render_state_block(state):
    lines = [REF_VALUES_HEADER]
    domain = None
    for k, value in sorted(state.triples, key=lambda kv: (kv[0], kv[1])):
        if k.domain != domain:
            domain = k.domain
            lines.append("")
            lines.append(f"## {domain.title()}")
        lines.append(f"* {k.name}: {value}")
        if k in state.new_slot_descriptions:
            lines.append(f"- {state.new_slot_descriptions[k]}")
    return "\n".join(lines)


def unified_wording(warning):
    """An old warning in the shared walker's wording: a bullet outside a
    section and a duplicate key read the same in both blocks."""
    warning = warning.replace("value bullet outside", "bullet outside")
    warning = re.sub(r"duplicate value for (.*), keeping last$", r"duplicate slot \1", warning)
    return re.sub(r"(duplicate slot .*?)(, keeping last)?$", r"\1, keeping last", warning)


def warned_lines(warnings):
    return [int(w.split()[1].rstrip(":")) for w in warnings]


# Both blocks are drawn as runs of chunks: section headers (empty and bare
# ``##`` ones too), bullets over the small key vocabulary (so keys repeat
# and hit the known schema), some without a colon or a name, each followed
# by up to two ``-`` or blank lines, and stray lines: other ``#`` blocks,
# lone ``-`` lines and free text. Text before the header is drawn the same.
section_lines = st.sampled_from(["## Hotel", "## train", "##  Garden ", "## ", "##", "## _"])
bullet_lines = st.sampled_from([
    "* area: north", "* Area : cheap", "* price: 2", "*  day:Monday ", "* style: a: b",
    "* style", "* : x", "*  _ : y", "*", "*area: south",
])
dash_lines = st.sampled_from(["- a new thing", "- the price", "-", "- ", "-- dashes", "-x"])
stray_lines = st.sampled_from([
    "# Key Information Values", "# Key Information Types", "# Dialogue", "#", "#x",
    "", "   ", "free text", "User: hi", "- stray",
])
chunks = st.one_of(
    section_lines.map(lambda line: [line]),
    st.tuples(bullet_lines, st.lists(dash_lines | st.just(""), max_size=2))
    .map(lambda t: [t[0], *t[1]]),
    stray_lines.map(lambda line: [line]),
)
block_bodies = st.lists(chunks, max_size=12).map(lambda cs: [line for c in cs for line in c])
block_texts = st.tuples(
    block_bodies,
    st.sampled_from(["# Key Information Values", "# Key Information Types",
                     "  # Key Information Values "]),
    block_bodies,
).map(lambda t: "\n".join(t[0] + [t[1]] + t[2]))


def outcome_of(parse, *args):
    try:
        return "ok", parse(*args)
    except (MissingTypesHeader, MissingValuesHeader) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=500, deadline=None)
@given(block_texts, st.lists(slot_defs, max_size=3).map(schema_of))
def test_state_parser_matches_old_parser(text, known):
    # a small known schema, so that most drawn keys are discoveries
    got = outcome_of(parse_state_block, text, known)
    want = outcome_of(ref_parse_state_block, text, known)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    (state, warnings), prediction = want[1], got[1]
    assert prediction.state == state
    assert warned_lines(prediction.parse_warnings) == warned_lines(warnings)
    assert list(prediction.parse_warnings) == [unified_wording(w) for w in warnings]


@settings(max_examples=500, deadline=None)
@given(block_texts)
def test_schema_parser_matches_old_parser(text):
    got = outcome_of(parse_schema_block, text)
    want = outcome_of(ref_parse_schema_block, text)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    (schema, warnings), (ref_schema, ref_warnings) = got[1], want[1]
    assert schema.slots == ref_schema.slots
    assert warned_lines(warnings) == warned_lines(ref_warnings)
    assert warnings == [unified_wording(w) for w in ref_warnings]


described_states = st.tuples(
    st.dictionaries(keys, values, max_size=6),
    st.lists(st.sampled_from(["", "a thing", "the price"]), max_size=6),
).map(lambda t: DialogueState.from_pairs(t[0].items(), dict(zip(t[0], t[1]))))


@settings(max_examples=300, deadline=None)
@given(described_states)
def test_state_renderer_matches_old_renderer(state):
    assert render_state_block(state) == ref_render_state_block(state)


# --- the simulator's prompt templates and fenced-block retry -----------------

# The default templates of the removed ``SimPromptPack``, spelled out.
REF_SIM_TEMPLATES = {
    "SCENARIO_PROMPT": (
        "Write a numbered list of {n} different scenarios in which one person is "
        "getting help from another.\n"
        "Each line must follow this template exactly:\n"
        "<user> is getting help from <agent> in order to <task A>, <task B>, ...\n"
        "Use 2 or 3 tasks per scenario and make the scenarios distinct."
    ),
    "SLOT_SCHEMA_PROMPT": (
        "Scenario: {scenario}\n"
        "Task: {task}\n"
        "List the types of preferences or requirements the user might bring to "
        "this task.\n"
        "Write one line per field inside a fenced code block, each formatted as:\n"
        "name: description"
    ),
    "KNOWLEDGE_SCHEMA_PROMPT": (
        "Scenario: {scenario}\n"
        "Task: {task}\n"
        "The user preference fields are:\n"
        "{slot_block}\n"
        "List the fields that describe one of the agent's actual knowledge items "
        "for this task. Preference fields like a maximum price should become "
        "actual-value fields like a price.\n"
        "Write one line per field inside a fenced code block, each formatted as:\n"
        "name: description"
    ),
    "KNOWLEDGE_LIST_PROMPT": (
        "Task: {task}\n"
        "Knowledge item fields:\n"
        "{schema_block}\n"
        "Write {count} candidate knowledge items inside a fenced code block.\n"
        "Write each item as 'name = value' lines and separate items with blank lines."
    ),
    "GOAL_PROMPT": (
        "Task: {task}\n"
        "Preference fields:\n"
        "{slot_block}\n"
        "An ideal solution looks like:\n"
        "{ideal_block}\n"
        "Fill in user preferences matching this solution inside a fenced code "
        "block, one 'name = value' line per preference field."
    ),
    "RED_HERRING_PROMPT": (
        "Task: {task}\n"
        "Knowledge item fields:\n"
        "{schema_block}\n"
        "The user goal is:\n"
        "{goal_block}\n"
        "Write {count} additional knowledge items that are similar to the goal "
        "without satisfying it, inside a fenced code block.\n"
        "Write each item as 'name = value' lines and separate items with blank lines."
    ),
    "USER_TURN_PROMPT": (
        "You are {role}, seeking help. Your goal preferences:\n"
        "{goal_block}\n"
        "Dialogue so far:\n"
        "{dialogue}\n"
        "Write your next message. Keep it short and do not reveal everything at once."
    ),
    "AGENT_TURN_PROMPT": (
        "You are {role}, providing help. Your knowledge:\n"
        "{knowledge_block}\n"
        "Dialogue so far:\n"
        "{dialogue}\n"
        "Write your next message. Keep it short."
    ),
    "ANNOTATE_PROMPT": (
        "{schema_block}\n\n# Dialogue\n\n{dialogue}\n\n"
        "Record the preferences the user has shared so far as a "
        "'# Key Information Values' block."
    ),
    "END_OF_TASK_PROMPT": (
        "Dialogue so far:\n"
        "{dialogue}\n"
        "Has the task '{task}' been completed or abandoned? Answer yes or no."
    ),
}


def test_sim_templates_keep_their_bytes():
    assert {name: getattr(sim, name) for name in REF_SIM_TEMPLATES} == REF_SIM_TEMPLATES


# The two retry loops as they were before one helper replaced them, with
# the simulator's fixed call settings.
def ref_generate_fields(backend, prompt):
    for attempt in range(2):
        response = backend.generate(GenerationRequest(prompt, max_output=512, temperature=0.7))
        block = sim._fenced_block(response)
        if block is not None:
            parsed = sim._parse_fields(block)
            if parsed:
                return parsed
        if attempt == 0:
            sim.log.warning("definition block failed to parse, retrying")
    raise sim.SchemaDefinitionError(f"no parseable definition block for prompt: {prompt[:80]!r}")


def ref_generate_records(backend, prompt):
    for attempt in range(2):
        response = backend.generate(GenerationRequest(prompt, max_output=512, temperature=0.7))
        block = sim._fenced_block(response)
        if block is not None:
            records = sim._parse_records(block)
            if records:
                return records
        if attempt == 0:
            sim.log.warning("record block failed to parse, retrying")
    raise sim.TaskInitError(f"no parseable record block for prompt: {prompt[:80]!r}")


NEW_RETRIES = {
    "fields": lambda backend, prompt: sim._generate_block(
        backend, prompt, sim._parse_fields, sim.SchemaDefinitionError, "definition"),
    "records": lambda backend, prompt: sim._generate_block(
        backend, prompt, sim._parse_records, sim.TaskInitError, "record"),
}
REF_RETRIES = {"fields": ref_generate_fields, "records": ref_generate_records}


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelname, record.getMessage()))


def retry_outcome(retry, replies, prompt):
    """(result or error, requests sent, log messages) of one retry loop over
    a script of replies; a call past the script's end raises ScriptExhausted."""
    backend = ScriptedBackend.from_responses(replies)
    sent = []
    generate = backend.generate
    backend.generate = lambda request: sent.append(request) or generate(request)
    messages = _Messages()
    sim.log.addHandler(messages)
    try:
        result = "ok", retry(backend, prompt)
    except Exception as exc:
        result = type(exc), str(exc)
    finally:
        sim.log.removeHandler(messages)
    return result, sent, messages.messages


# Block bodies mix field lines, record lines, blank lines and junk, so that
# either parser finds something, nothing, or only part of a block.
_block_lines = st.sampled_from([
    "name: the name", "- price: a price", "* color:", ": no name",
    "plant = Rose", "price = 3", "= no name", "", "junk",
])
_block_bodies = st.lists(_block_lines, max_size=5).map("\n".join)
_replies = st.one_of(
    _block_bodies.map(lambda b: f"```\n{b}\n```"),
    _block_bodies.map(lambda b: f"Sure:\n```text\n{b}\n```\nDone."),
    _block_bodies,
    st.just("```\n```"),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(NEW_RETRIES)), st.lists(_replies, min_size=1, max_size=3),
       st.one_of(st.text(max_size=20), st.text(min_size=70, max_size=120)))
def test_fenced_block_retry_matches_old_loops(kind, replies, prompt):
    got = retry_outcome(NEW_RETRIES[kind], replies, prompt)
    assert got == retry_outcome(REF_RETRIES[kind], replies, prompt)


# --- the induction engine ----------------------------------------------------
# The engine as it was before ``run_induction`` held the two loops itself: a
# mutable run, a predict step that only reads it, and a fold step that
# records each outcome in it in stream order.


@dataclass
class RefInductionRun:
    schema: SlotSchema = field(default_factory=SlotSchema)
    mode: StateMode = StateMode.STATE
    refiner: Optional[object] = None
    dst_only: bool = False
    hard_cap: int = 300
    max_output: int = 1024
    temperature: float = 0.0
    stream_position: Tuple[int, int] = (0, 0)
    per_turn_states: List[StateLogEntry] = field(default_factory=list)
    parse_failures: int = 0
    failed_turns: int = 0
    dropped_discoveries: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class RefTurnPrediction:
    state: Optional[DialogueState]
    error: Optional[BackendError] = None


def ref_predict_turn(run, dialogue, turn, backend):
    if dialogue.turns[turn].speaker != "user":
        raise ValueError(f"turn {turn} of dialogue {dialogue.id} is not a user turn")
    prompt = render_prompt(run.schema, dialogue, turn)
    try:
        response = backend.generate(
            GenerationRequest(prompt, max_output=run.max_output, temperature=run.temperature)
        )
    except AuthError:
        raise
    except BackendError as exc:
        return RefTurnPrediction(None, exc)
    try:
        return RefTurnPrediction(parse_state_block(response, run.schema).state)
    except MissingValuesHeader:
        return RefTurnPrediction(None)


def ref_fold_turn(run, dialogue, turn, prediction):
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
            raise induct.SchemaOverflowError(
                f"schema reached {len(run.schema)} slots (hard cap {run.hard_cap}) "
                f"at dialogue {dialogue.id} turn {turn}"
            )
    return state, run.schema


def ref_tracked_turns(dialogue, mode):
    user_turns = dialogue.user_turn_indices()
    return user_turns[-1:] if mode is StateMode.FINAL else user_turns


def ref_record(run, dialogue, turn, d_index, state):
    run.per_turn_states.append(StateLogEntry(dialogue.id, turn, state, d_index))
    if run.refiner is not None:
        run.refiner.observe_state(state, d_index)


def ref_retrack(run, order, backend):
    frozen_version = run.schema.version
    stream = [
        (d_index, dialogue, turn)
        for d_index, dialogue in enumerate(order)
        for turn in ref_tracked_turns(dialogue, run.mode)
    ]
    with ordered_map(backend) as overlapped:
        predictions = overlapped(lambda item: ref_predict_turn(run, item[1], item[2], backend),
                                 stream)
        for (d_index, dialogue, turn), prediction in zip(stream, predictions):
            state, _ = ref_fold_turn(run, dialogue, turn, prediction)
            ref_record(run, dialogue, turn, d_index, state)
    assert run.schema.version == frozen_version, "schema mutated in DST mode"


def ref_run_induction(corpus, mode, refiner, backend, seed=None, initial_schema=None,
                      dst_only=False, **settings):
    """(report object, failed turns, final schema) of one run."""
    run = RefInductionRun(schema=initial_schema if initial_schema is not None else SlotSchema(),
                          mode=mode, refiner=refiner, dst_only=dst_only, **settings)
    order = list(corpus.dialogues)
    if seed is not None:
        random.Random(seed).shuffle(order)
    if dst_only:
        ref_retrack(run, order, backend)
    else:
        for d_index, dialogue in enumerate(order):
            for turn_index in ref_tracked_turns(dialogue, mode):
                run.stream_position = (d_index, turn_index)
                prediction = ref_predict_turn(run, dialogue, turn_index, backend)
                state, _ = ref_fold_turn(run, dialogue, turn_index, prediction)
                ref_record(run, dialogue, turn_index, d_index, state)
            if refiner is not None:
                try:
                    run.schema = refiner.end_dialogue(run.schema, d_index)
                except AuthError:
                    raise
                except BackendError as exc:
                    run.errors.append(f"{dialogue.id}:refine: {exc}")
    report = {
        "final_schema": schema_to_obj(run.schema),
        "states": [entry.to_obj() for entry in run.per_turn_states],
        "parse_failures": run.parse_failures,
        "turns_processed": len(run.per_turn_states),
        "seed": seed,
        "errors": list(run.errors),
    }
    return report, run.failed_turns, run.schema


TRANSPORT_FAILURE = "<transport failure>"


class SchemaKeyedScript(ScriptedBackend):
    """Keyed script whose reply to a turn depends on the schema in its
    prompt. With more than one call in flight the call of each turn sleeps
    0-6 ms, drawn from the turn's tag and ``seed``, so overlapping calls
    complete out of order. The reply TRANSPORT_FAILURE raises TransportError
    instead of being returned."""

    def generate(self, request):
        if self.max_in_flight > 1:
            tag = re.findall(r"<\d+:\d+>", request.prompt)[-1]
            time.sleep(random.Random(f"{tag}{self.seed}").randrange(4) * 0.002)
        reply = super().generate(request)
        if reply == TRANSPORT_FAILURE:
            raise TransportError("connection reset")
        return reply


def catalog_parity(prompt):
    return prompt.split("# Dialogue")[0].count("\n* ") % 2


def schema_keyed_script(replies, max_in_flight, seed):
    """``replies[d][k]`` is the pair of replies to user turn k of dialogue d,
    the first for a prompt whose catalog holds an even number of slots. A
    turn's prompt holds the tags of the turns before it, so later turns are
    matched first."""
    entries = [
        ((lambda tag, parity: lambda p: tag in p and catalog_parity(p) == parity)(
            f"<{d}:{k}>", parity), pair[parity])
        for d, turns in enumerate(replies)
        for k, pair in reversed(list(enumerate(turns)))
        for parity in (0, 1)
    ]
    backend = SchemaKeyedScript(entries, mode="keyed")
    backend.max_in_flight, backend.seed = max_in_flight, seed
    return backend


def tagged_corpus(replies):
    dialogues = []
    for d, turns in enumerate(replies):
        body = []
        for k in range(len(turns)):
            body += [Turn("user", f"<{d}:{k}> I need a room"), Turn("agent", "Anything else?")]
        dialogues.append(Dialogue(f"d{d}", "scn", tuple(body)))
    return CorpusFile(dialogues=tuple(dialogues))


def values_reply(sections):
    lines = ["# Key Information Values", ""]
    for domain, names in sections:
        lines += [f"## {domain}"] + [f"* {n}: v-{n}\n- the {n}" for n in names] + [""]
    return "\n".join(lines)


_slot_names = st.lists(st.sampled_from(["area", "price", "day", "food"]), unique=True,
                       max_size=3)
_engine_replies = st.one_of(
    st.lists(st.tuples(st.sampled_from(["Hotel", "Train"]), _slot_names),
             min_size=1, max_size=2).map(values_reply),
    st.just("I cannot answer that."),
    st.just(TRANSPORT_FAILURE),
)
_engine_streams = st.lists(
    st.lists(st.tuples(_engine_replies, _engine_replies), min_size=1, max_size=3),
    min_size=1, max_size=5,
)


def engine_outcome(run, two_pass, replies, mode, window, in_flight, seed, hard_cap):
    """What a one-pass or two-pass run of ``run`` over the tagged stream gives:
    the overflow message, or the bytes of the result and its failed turns
    (and for two passes, the bytes of the pass-1 schema)."""
    refiner = None
    if window is not None:
        refiner = make_refiner("slot-conf", FilterConfig(window_w=window, threshold_tau=1))
    backend = schema_keyed_script(replies, in_flight, seed)
    corpus = tagged_corpus(replies)
    seed = seed if seed % 2 else None  # half the streams are shuffled
    try:
        outcome = run(corpus, mode, refiner, backend, seed=seed, hard_cap=hard_cap)
        if two_pass:
            outcome = run(corpus, mode, None, backend, seed=seed, hard_cap=hard_cap,
                          initial_schema=outcome[2], dst_only=True) + (outcome[2],)
    except induct.SchemaOverflowError as exc:
        return "overflow", str(exc)
    return (canonical_json(outcome[0]), outcome[1],
            *(canonical_json(schema_to_obj(s)) for s in outcome[2:]))


def new_run_induction(*args, hard_cap, **kwargs):
    with mock.patch.object(induct, "HARD_CAP", hard_cap):
        result = induct.run_induction(*args, **kwargs)
    return result.to_obj(), result.failed_turns, result.final_schema


@given(_engine_streams, st.sampled_from(list(StateMode)), st.sampled_from([None, 1, 2]),
       st.booleans(), st.sampled_from([1, 4]), st.integers(0, 3), st.sampled_from([3, 300]))
@settings(max_examples=80, deadline=None)
def test_induction_engine_matches_old_engine(replies, mode, window, two_pass, in_flight, seed,
                                             hard_cap):
    args = (two_pass, replies, mode, window, in_flight, seed, hard_cap)
    got = engine_outcome(new_run_induction, *args)
    assert got == engine_outcome(ref_run_induction, *args)


# --- the prompt's context budget ---------------------------------------------


REF_SPEAKER_LABELS = {"user": "User", "agent": "Agent"}


def ref_render_prompt(schema, dialogue, upto_turn, char_budget):
    turn_lines = [f"{REF_SPEAKER_LABELS[t.speaker]}: {t.text}"
                  for t in dialogue.turns[: upto_turn + 1]]
    # re-sums every kept line after each drop
    while len(turn_lines) > 1 and sum(len(ln) + 1 for ln in turn_lines) > char_budget:
        turn_lines.pop(0)
    dialogue_block = "\n".join(["# Dialogue", ""] + turn_lines)
    return "\n\n".join([ref_render_schema_block(schema), dialogue_block,
                        "Identify Key Information Values from the Dialogue"])


@settings(max_examples=200, deadline=None)
@given(schemas, st.lists(st.tuples(st.text(max_size=30), st.text(max_size=30)), min_size=1,
                         max_size=8),
       st.data(), st.integers(0, 8) | st.integers(0, 300))
def test_budgeted_prompt_matches_old_loop(schema, exchanges, data, budget):
    # budgets 0..6 are below even an empty "User: " line
    turns = [Turn(speaker, text) for u, a in exchanges for speaker, text in (("user", u),
                                                                            ("agent", a))]
    dialogue = Dialogue("d1", "s1", tuple(turns))
    upto = data.draw(st.integers(0, len(turns) - 1))
    with mock.patch.object(seqio, "CONTEXT_BUDGET", budget):
        got = render_prompt(schema, dialogue, upto)
    assert got == ref_render_prompt(schema, dialogue, upto, budget)


# --- mapping agreement ---------------------------------------------------------


def ref_decision(mapping, predicted):
    for p, g in mapping.pairs:
        if p == predicted:
            return g
    return None


def ref_mapping_agreement(auto, human):
    predicted = auto.predicted_keys()
    if not predicted:
        return 1.0
    agree = sum(1 for k in predicted if ref_decision(auto, k) == ref_decision(human, k))
    return agree / len(predicted)


def mapping_of(decisions):
    """A SlotMapping of predicted -> gold decisions, None for unmatched."""
    return SlotMapping(tuple((p, g) for p, g in decisions.items() if g is not None),
                       frozenset(p for p, g in decisions.items() if g is None))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, st.none() | keys), st.data())
def test_mapping_agreement_matches_pair_scan(auto_decisions, data):
    # the human decides every auto-predicted slot, and maybe some others
    human_decisions = {p: data.draw(st.none() | keys) for p in auto_decisions}
    human_decisions.update(data.draw(st.dictionaries(keys, st.none() | keys)))
    auto, human = mapping_of(auto_decisions), mapping_of(human_decisions)
    for k in VOCABULARY:
        assert auto.decision(k) == ref_decision(auto, k)
        assert human.decision(k) == ref_decision(human, k)
    assert mapping_agreement(auto, human) == ref_mapping_agreement(auto, human)


# --- the JSON writer -----------------------------------------------------------


def ref_canonical_json(obj):
    """The artifact format as the pure-Python encoder writes it."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# text with non-ASCII letters, quotes, backslashes and control characters
awkward = st.text(st.sampled_from(list('aZé ß"\\/\n\t\r\x00\x1f\x7f 😀')), max_size=6) | st.text(
    max_size=6)


def key_or_none(domain, name):
    try:
        return canonical_slot_key(domain, name)
    except InvalidSlotName:
        return None


awkward_keys = st.builds(key_or_none, awkward, awkward).filter(lambda k: k is not None)
awkward_states = st.builds(
    lambda pairs, described: DialogueState.from_pairs(
        pairs.items(), {k: d for k, d in described.items() if k in pairs}),
    st.dictionaries(awkward_keys, awkward, max_size=4),  # may be empty
    st.dictionaries(awkward_keys, awkward, max_size=3),  # may describe none
)
awkward_entries = st.builds(StateLogEntry, awkward, st.integers(0, 40), awkward_states,
                            st.none() | st.integers(0, 40))
awkward_results = st.builds(
    induct.RunResult,
    st.lists(st.builds(SlotDef, awkward_keys, awkward), max_size=5).map(schema_of),
    st.lists(awkward_entries, max_size=6).map(tuple),  # may be an empty log
    st.integers(0, 9),
    st.none() | st.integers(-5, 10**12),
    st.lists(awkward, max_size=3).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(awkward_results, st.booleans(), st.sampled_from(list(StateMode)),
       st.fixed_dictionaries({"name": awkward, "params": st.dictionaries(awkward, st.integers())}))
def test_fast_report_writer_matches_canonical_json(result, two_pass, mode, refiner):
    # the report as cli.induce builds it
    report = result.to_obj()
    report["two_pass"] = two_pass
    report["mode"] = mode.value
    report["refiner"] = refiner
    assert canonical_json(report) == ref_canonical_json(report)


# json.dumps writes an int, float, bool or None key as its JSON text
json_keys = awkward | st.integers() | st.floats() | st.booleans() | st.none()
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | awkward,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_keys, children,
                                                                      max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@example({1: 0, 2.5: 1, float("nan"): 2, float("-inf"): 3, True: 4, False: 5, None: 6})
@given(json_trees)
def test_fast_writer_matches_canonical_json_on_any_tree(tree):
    assert canonical_json(tree) == ref_canonical_json(tree)


@pytest.mark.parametrize("tree", [{(1, 2): 0}, [{"a": {frozenset(): 0}}], {"a": {1, 2}}])
def test_writer_refuses_what_json_dumps_refuses(tree):
    with pytest.raises(TypeError):
        ref_canonical_json(tree)
    with pytest.raises(TypeError):
        canonical_json(tree)


# --- the evaluation path and the state-log reader ------------------------------
# As they were before states without discoveries shared one empty
# description map, log lines matched descriptions only when they had some,
# gold fills were grouped without a log entry per gold turn, and each
# valued slot folded its fills once.


@dataclass(frozen=True)
class RefDialogueState:
    triples: frozenset = frozenset()
    new_slot_descriptions: Mapping = field(default_factory=dict)

    def __post_init__(self):
        triples = frozenset(self.triples)
        object.__setattr__(self, "triples", triples)
        keys_ = {k for k, _ in triples}
        if len(keys_) != len(triples):
            raise ValueError("multiple values for one slot key in a single state")
        descriptions = dict(self.new_slot_descriptions)
        missing = descriptions.keys() - keys_
        if missing:
            raise ValueError(f"described slots missing from triples: {sorted(map(str, missing))}")
        object.__setattr__(self, "new_slot_descriptions", MappingProxyType(descriptions))

    def keys(self):
        return frozenset(k for k, _ in self.triples)


def ref_state_from_obj(obj):
    if not isinstance(obj, dict):
        raise seqio.CorpusFormatError(f"state must be an object, got {type(obj).__name__}")
    pairs = []
    for domain, slots in obj.items():
        if not isinstance(slots, dict):
            raise seqio.CorpusFormatError(f"state domain {domain!r} must map slots to values")
        for name, value in slots.items():
            if type(value) is not str:
                raise seqio.CorpusFormatError(
                    f"state domain {domain!r} slot {name!r} must be a string, "
                    f"got {seqio._type_name(value)}")
            try:
                pairs.append((canonical_slot_key(domain, name), value))
            except InvalidSlotName as exc:
                raise seqio.CorpusFormatError(str(exc)) from exc
    return RefDialogueState(frozenset(pairs), {})


def ref_entry_from_obj(obj):
    seqio._check_fields(obj, seqio._LOG_ENTRY_FIELDS, "state-log entry")
    state = ref_state_from_obj(obj["state"])
    logged = obj.get("new_slot_descriptions") or {}
    for name, description in logged.items():
        if type(description) is not str:
            raise seqio.CorpusFormatError(f"new slot {name!r} description must be a string, "
                                          f"got {seqio._type_name(description)}")
    descriptions = {k: logged[str(k)] for k in state.keys() if str(k) in logged}
    if descriptions:
        state = RefDialogueState(state.triples, descriptions)
    return StateLogEntry(obj["dialogue_id"], obj["turn"], state, obj.get("dialogue_index"))


def ref_stray_check(dialogues, gold_schema):
    known = set(gold_schema.keys())
    for dialogue in dialogues:
        for i, turn in enumerate(dialogue.turns):
            if turn.gold_state is None:
                continue
            stray = turn.gold_state.keys() - known
            if stray:
                raise seqio.CorpusFormatError(
                    f"dialogue {dialogue.id} turn {i}: gold state uses slots "
                    f"absent from gold schema: {sorted(map(str, stray))}"
                )


@dataclass(frozen=True)
class RefValuedSlot:
    key: SlotKey
    fills: frozenset = frozenset()

    def folded_fills(self):
        return frozenset((d, t, v.casefold()) for d, t, v in self.fills)


def ref_collect_valued_slots(state_log):
    fills = {}
    for entry in state_log:
        for k, value in entry.state.triples:
            fills.setdefault(k, set()).add((entry.dialogue_id, entry.turn_index, value))
    return [RefValuedSlot(k, frozenset(events)) for k, events in sorted(fills.items())]


def ref_gold_valued_slots(dialogues, mode):
    entries = [
        StateLogEntry(dialogue.id, turn_index, target)
        for dialogue in dialogues
        for turn_index, target in ref_gold_state_stream(dialogue, mode)
    ]
    return ref_collect_valued_slots(entries)


def ref_match_slots(P, G):
    gold_folded = [(g, g.folded_fills()) for g in G]
    pairs = []
    for p in sorted(P, key=lambda s: s.key):
        if not p.fills or not G:
            continue
        folded = p.folded_fills()
        neg_overlap, _, best = min((-len(folded & fills), g.key, g) for g, fills in gold_folded)
        if -neg_overlap / len(p.fills) >= evalx.MATCH_THRESHOLD:
            pairs.append((p, best))
    return pairs


def ref_prf(precision, recall):
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def ref_evaluate_run(state_log, gold_corpus, mode):
    dialogue_scenario = {d.id: d.scenario_id for d in gold_corpus.dialogues}
    user_turns = {d.id: frozenset(d.user_turn_indices()) for d in gold_corpus.dialogues}
    tracked = {d.id: frozenset(seqio.tracked_turns(d, mode)) for d in gold_corpus.dialogues}
    dialogues_by_scenario = {}
    for d in gold_corpus.dialogues:
        dialogues_by_scenario.setdefault(d.scenario_id, []).append(d)
    entries_by_scenario = {sid: [] for sid in dialogues_by_scenario}
    for entry in state_log:
        if entry.dialogue_id not in dialogue_scenario:
            raise evalx.UnknownScenario(f"dialogue {entry.dialogue_id!r} not present in gold corpus")
        if entry.turn_index not in user_turns[entry.dialogue_id]:
            raise evalx.UnknownScenario(f"dialogue {entry.dialogue_id!r} turn {entry.turn_index} "
                                        "is not a user turn in gold corpus")
        if entry.turn_index not in tracked[entry.dialogue_id]:
            raise evalx.UnknownScenario(f"dialogue {entry.dialogue_id!r} turn {entry.turn_index} "
                                        f"is not tracked in {mode.value} mode")
        entries_by_scenario[dialogue_scenario[entry.dialogue_id]].append(entry)
    per_scenario = {}
    for scenario_id, entries in sorted(entries_by_scenario.items()):
        G = ref_gold_valued_slots(dialogues_by_scenario[scenario_id], mode)
        if not G:
            raise evalx.InvalidGold(f"scenario {scenario_id!r} has no gold fills")
        P = ref_collect_valued_slots(entries)
        pairs = ref_match_slots(P, G)
        matched_gold = {g.key for _, g in pairs}
        s = ((0.0, 0.0, 0.0) if not P else
             ref_prf(len(matched_gold) / len(P), len(matched_gold) / len(G)))
        if not pairs:
            v = (0.0, 0.0, 0.0)
        else:
            overlap = sum(len(p.folded_fills() & g.folded_fills()) for p, g in pairs)
            total_p = sum(len(p.fills) for p, _ in pairs)
            total_g = sum(len(g.fills) for _, g in pairs)
            v = ref_prf(overlap / total_p if total_p else 0.0,
                        overlap / total_g if total_g else 0.0)
        per_scenario[scenario_id] = (*s, *v)
    if not per_scenario:
        raise evalx.InvalidGold("gold corpus contains no dialogues")
    means = [sum(n[i] for n in per_scenario.values()) / len(per_scenario) for i in range(6)]
    return evalx.MetricReport(*means, per_scenario=per_scenario)


def error_of(run, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", run(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def valued(slots):
    return [(s.key, s.fills, s.folded_fills()) for s in slots]


# Surface spellings that canonicalize to one slot, so a state object can
# value one slot twice, and values whose case folding is not a lower-casing.
SURFACE_SLOTS = [("hotel", "area"), ("Hotel", "Area"), ("hotel", "price_range"),
                 ("train", "day"), ("TRAIN", "Day"), ("garden", "style"), ("taxi", "to")]
MIXED_VALUES = ["north", "North", "NORTH", "cheap", "Cheap", "straße", "STRASSE", "İzmir", "2"]
state_objs = st.lists(st.tuples(st.sampled_from(SURFACE_SLOTS), st.sampled_from(MIXED_VALUES)),
                      max_size=5).map(
    lambda fills: {d: {n: v for (d2, n), v in fills if d2 == d} for (d, _), _ in fills})
description_objs = st.none() | st.dictionaries(
    st.sampled_from(["hotel/area", "hotel/price range", "train/day", "garden/style", "hotel/gone",
                     "Hotel/Area"]),
    st.sampled_from(["", "the part of town", "a day"]), max_size=3)


@settings(max_examples=300, deadline=None)
@given(state_objs, description_objs, st.none() | st.integers(0, 9))
# a smaller slot given one value under two spellings, which is no fault
@example({"hotel": {"area": "north"}, "Hotel": {"Area": "north"},
          "train": {"day": "north"}, "TRAIN": {"Day": "North"}}, None, None)
def test_log_reader_matches_old_reader(state, described, dialogue_index):
    obj = {"dialogue_id": "d0", "turn": 0, "state": state, "dialogue_index": dialogue_index}
    if described is not None:
        obj["new_slot_descriptions"] = described
    got, want = error_of(StateLogEntry.from_obj, obj), error_of(ref_entry_from_obj, obj)
    if want == (ValueError, "multiple values for one slot key in a single state"):
        # the one changed message: it names the smallest slot given two
        # different values
        valued = {}
        for d, slots in state.items():
            for n, v in slots.items():
                valued.setdefault(canonical_slot_key(d, n), set()).add(v)
        twice = min(k for k, vs in valued.items() if len(vs) > 1)
        assert got == (ValueError, f"slot {twice} valued twice")
        return
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return
    entry, ref = got[1], want[1]
    assert (entry.dialogue_id, entry.turn_index, entry.dialogue_index) == (
        ref.dialogue_id, ref.turn_index, ref.dialogue_index)
    assert entry.state.triples == ref.state.triples
    assert dict(entry.state.new_slot_descriptions) == dict(ref.state.new_slot_descriptions)


@st.composite
def corpora_and_logs(draw):
    """A gold corpus over the small vocabulary and a log against it, as
    objects: dialogues of one to three scenarios, user turns whose gold
    state may be missing, now and then a gold slot the schema lacks, and log
    entries at the turns ``mode`` tracks, now and then at another turn or
    dialogue, with mixed-case values and discoveries."""
    mode = draw(st.sampled_from(list(StateMode)))
    gold_keys = draw(st.lists(keys, min_size=1, max_size=6, unique=True))
    schema = schema_of([SlotDef(k, "a thing") for k in gold_keys])
    stray = draw(st.integers(0, 7)) == 0
    gold_pool = st.sampled_from(VOCABULARY if stray else gold_keys)
    gold_states = st.dictionaries(gold_pool, st.sampled_from(MIXED_VALUES), max_size=4)
    dialogues = []
    for i in range(draw(st.integers(1, 6))):
        turns = []
        for _ in range(draw(st.integers(1, 4))):
            state = draw(st.none() | gold_states.map(lambda d: DialogueState.from_pairs(d.items())))
            turns += [Turn("user", "u", state), Turn("agent", "a")]
        dialogues.append(Dialogue(f"d{i}", f"s{draw(st.integers(0, 2))}", tuple(turns)))
    log = []
    for d in dialogues:
        for turn in seqio.tracked_turns(d, mode):
            if draw(st.booleans()):
                continue
            if draw(st.integers(0, 49)) == 0:
                turn = draw(st.sampled_from([turn + 1, 0, 99]))
            predicted = draw(st.dictionaries(keys, st.sampled_from(MIXED_VALUES), max_size=4))
            state = {}
            for k, v in predicted.items():
                state.setdefault(k.domain, {})[k.name] = v
            described = {str(k): "new" for k in predicted if draw(st.booleans())}
            log.append({"dialogue_id": d.id if draw(st.integers(0, 49)) else "ghost",
                        "turn": turn, "state": state, "new_slot_descriptions": described})
    return mode, tuple(dialogues), schema, log


@settings(max_examples=300, deadline=None)
@given(corpora_and_logs())
def test_evaluation_matches_old_evaluation(drawn):
    mode, dialogues, schema, log = drawn
    got_corpus = error_of(CorpusFile, dialogues, schema)
    assert got_corpus[0] in ("ok", seqio.CorpusFormatError)
    assert error_of(ref_stray_check, dialogues, schema) == (
        ("ok", None) if got_corpus[0] == "ok" else got_corpus)
    if got_corpus[0] != "ok":
        return
    corpus = got_corpus[1]
    entries = [StateLogEntry.from_obj(obj) for obj in log]
    ref_entries = [ref_entry_from_obj(obj) for obj in log]
    assert valued(evalx.collect_valued_slots(entries)) == valued(
        ref_collect_valued_slots(ref_entries))
    assert valued(evalx.gold_valued_slots(dialogues, mode)) == valued(
        ref_gold_valued_slots(dialogues, mode))
    assert error_of(evalx.evaluate_run, entries, corpus, mode) == error_of(
        ref_evaluate_run, ref_entries, corpus, mode)


# --- the evaluate command against the object route -------------------------------
# ``evaluate`` reads its two files straight into slot fills. Before, it loaded
# them as a CorpusFile and StateLogEntry objects and scored those with
# ``evaluate_run``; a human mapping was matched on ``collect_valued_slots``
# and ``gold_valued_slots`` of the same objects.


def object_route(predictions, gold_path, mode, human_path):
    """(exit code, stdout, stderr, metrics.json text or None) of ``evaluate``
    on the object route."""
    try:
        gold = seqio.load_corpus(gold_path)
        log = seqio.load_state_log(predictions)
        human = evalx.load_human_mapping(human_path) if human_path else None
        report = evalx.evaluate_run(log, gold, mode)
    except seqio.CorpusFormatError as exc:
        return 2, "", f"error: {exc}\n", None
    except (evalx.UnknownScenario, evalx.InvalidGold) as exc:
        return 1, "", f"error: {exc}\n", None
    stdout = report.render_table() + "\n"
    if human is not None:
        auto = evalx.match_slots(evalx.collect_valued_slots(log),
                                 evalx.gold_valued_slots(gold.dialogues, mode))
        try:
            agreement = evalx.mapping_agreement(auto, human)
        except evalx.IncompleteMapping as exc:
            return 1, stdout, f"error: {exc}\n", None
        stdout += f"mapping agreement with human decisions: {agreement:.3f}\n"
    return 0, stdout, "", canonical_json(report.to_obj())


CORPUS_FAULTS = ["repeated id", "gold on agent turn", "unknown speaker", "out of turn",
                 "text not a string", "value not a string", "state not an object",
                 "stray gold slot", "slot valued twice", "empty slot name", "null gold schema",
                 "dialogue not an object"]
LOG_FAULTS = ["unknown dialogue", "agent turn", "untracked turn", "no such turn",
              "logged twice", "turn not an integer", "value not a string", "slot valued twice",
              "description not a string", "not JSON", "blank line"]


def _state_obj(pairs):
    obj = {}
    for k, v in pairs:
        obj.setdefault(k.domain, {})[k.name] = v
    return obj


def _break_corpus(draw, corpus, fault):
    dialogues = corpus["dialogues"]
    objects = [d for d in dialogues if isinstance(d, dict)]
    turns = draw(st.sampled_from(objects))["turns"]
    user = draw(st.sampled_from(turns[0::2]))
    if fault == "repeated id":
        objects[-1]["id"] = objects[0]["id"]  # no repeat when there is one dialogue
    elif fault == "gold on agent turn" and len(turns) > 1:
        turns[1]["state"] = {}
    elif fault == "unknown speaker":
        user["speaker"] = "bot"
    elif fault == "out of turn":
        turns.append({"speaker": turns[-1]["speaker"], "text": "again", "state": None})
    elif fault == "text not a string":
        user["text"] = 5
    elif fault == "value not a string":
        user["state"] = {"hotel": {"area": 3}}
    elif fault == "state not an object":
        user["state"] = ["hotel"]
    elif fault == "stray gold slot":
        user["state"] = {"taxi": {"to": "north"}}
    elif fault == "slot valued twice":
        user["state"] = {"hotel": {"area": "north"}, "HOTEL": {"Area": "south"}}
    elif fault == "empty slot name":
        user["state"] = {"hotel": {" ": "north"}}
    elif fault == "null gold schema":
        corpus["gold_schema"] = None
    elif fault == "dialogue not an object":
        dialogues.insert(draw(st.integers(0, len(dialogues))), 7)


def _bad_line(draw, lines, dialogue_id, fault):
    entry = {"dialogue_id": dialogue_id, "turn": 0, "state": {}}
    if fault == "unknown dialogue":
        entry["dialogue_id"] = "ghost"
    elif fault == "agent turn":
        entry["turn"] = 1
    elif fault == "untracked turn":
        pass  # turn 0 is tracked unless the mode is final and a later user turn exists
    elif fault == "no such turn":
        entry["turn"] = 98
    elif fault == "logged twice":
        return draw(st.sampled_from(lines)) if lines else "{}"
    elif fault == "turn not an integer":
        entry["turn"] = "0"
    elif fault == "value not a string":
        entry["state"] = {"hotel": {"area": None}}
    elif fault == "slot valued twice":
        entry["state"] = {"train": {"day": "monday"}, "Train": {"Day": "friday"}}
    elif fault == "description not a string":
        entry["new_slot_descriptions"] = {"hotel/area": 5}
    elif fault == "not JSON":
        return "not json"
    elif fault == "blank line":
        return "  "
    return json.dumps(entry)


@st.composite
def evaluate_cases(draw):
    """(mode, corpus document, state-log lines, human mapping or None): a
    gold corpus over the small vocabulary with one to three scenarios, a
    log at the turns the mode tracks with mixed-case values and slots the
    gold schema lacks, and now and then faults in either file, which may
    stand on any line, before or after another."""
    mode = draw(st.sampled_from(list(StateMode)))
    gold_keys = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    gold_states = st.dictionaries(st.sampled_from(gold_keys), st.sampled_from(MIXED_VALUES),
                                  min_size=1, max_size=3).map(lambda d: _state_obj(d.items()))
    dialogues = []
    for i in range(draw(st.integers(1, 5))):
        turns = []
        for _ in range(draw(st.integers(1, 3))):
            state = None if draw(st.integers(0, 4)) == 0 else draw(gold_states)
            turns.append({"speaker": "user", "text": "u", "state": state})
            turns.append({"speaker": "agent", "text": "a", "state": None})
        if draw(st.booleans()):
            turns.pop()  # the dialogue ends on a user turn
        dialogues.append({"id": f"d{i}", "scenario_id": f"s{draw(st.integers(0, 2))}",
                          "turns": turns})
    lines = []
    for d in dialogues:
        user_turns = list(range(0, len(d["turns"]), 2))
        for turn in user_turns[-1:] if mode is StateMode.FINAL else user_turns:
            if draw(st.integers(0, 3)) == 0:
                continue
            predicted = draw(st.dictionaries(keys, st.sampled_from(MIXED_VALUES), max_size=4))
            entry = {"dialogue_id": d["id"], "turn": turn, "state": _state_obj(predicted.items())}
            if draw(st.booleans()):
                entry["new_slot_descriptions"] = {str(k): "new" for k in predicted}
            lines.append(json.dumps(entry))
    ids = [d["id"] for d in dialogues]
    corpus = {"format_version": 1,
              "gold_schema": {"domains": [{"name": k.domain, "slots": [{"name": k.name}]}
                                          for k in gold_keys]},
              "dialogues": dialogues}
    if draw(st.integers(0, 3)) == 0:
        for fault in draw(st.lists(st.sampled_from(CORPUS_FAULTS), min_size=1, max_size=2)):
            _break_corpus(draw, corpus, fault)
    if draw(st.integers(0, 2)) == 0:
        for fault in draw(st.lists(st.sampled_from(LOG_FAULTS), min_size=1, max_size=3)):
            bad = _bad_line(draw, lines, draw(st.sampled_from(ids)), fault)
            lines.insert(draw(st.integers(0, len(lines))), bad)
    mapping = None
    if draw(st.booleans()):
        gold = st.none() | st.sampled_from(gold_keys).map(
            lambda k: {"domain": k.domain, "name": k.name})
        decisions = [{"predicted": {"domain": k.domain, "name": k.name}, "gold": draw(gold)}
                     for k in VOCABULARY if draw(st.integers(0, 59))]  # now and then one left out
        if draw(st.integers(0, 9)) == 0:
            decisions.insert(draw(st.integers(0, len(decisions))), 7)
        mapping = {"decisions": decisions}
    return mode.value, corpus, lines, mapping


# a pipeline error (an unknown dialogue) on line 1, a format error on line 2
_LATE_FORMAT_ERROR = (
    "state",
    {"format_version": 1, "gold_schema": {"domains": [{"name": "hotel", "slots": [{"name": "area"}]}]},
     "dialogues": [{"id": "d0", "scenario_id": "s0",
                    "turns": [{"speaker": "user", "text": "u", "state": {"hotel": {"area": "north"}}}]}]},
    [json.dumps({"dialogue_id": "ghost", "turn": 0, "state": {}}), "not json"],
    None,
)

# a scenario without gold fills (a refusal) and a mapping whose first entry is
# not an object (a format error): every file is read before the run is refused
_LATE_MAPPING_ERROR = (
    "update",
    {"format_version": 1, "gold_schema": {"domains": [{"name": "hotel", "slots": [{"name": "area"}]}]},
     "dialogues": [{"id": "d0", "scenario_id": "s0",
                    "turns": [{"speaker": "user", "text": "u", "state": None},
                              {"speaker": "agent", "text": "a", "state": None}]}]},
    [],
    {"decisions": [7]},
)


@settings(max_examples=400, deadline=None)
@given(evaluate_cases())
@example(_LATE_FORMAT_ERROR)
@example(_LATE_MAPPING_ERROR)
def test_evaluate_matches_object_route(case):
    mode, corpus, lines, mapping = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gold, predictions, out = tmp / "gold.json", tmp / "states.jsonl", tmp / "metrics.json"
        gold.write_text(canonical_json(corpus), encoding="utf-8")
        predictions.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        argv = ["evaluate", "--predictions", str(predictions), "--gold", str(gold),
                "--mode", mode, "--out", str(out)]
        human = None
        if mapping is not None:
            human = tmp / "mapping.json"
            human.write_text(json.dumps(mapping), encoding="utf-8")
            argv += ["--human-mapping", str(human)]
        result = CliRunner().invoke(cli.main, argv)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        got = (result.exit_code, result.stdout, result.stderr,
               out.read_text(encoding="utf-8") if out.exists() else None)
        assert got == object_route(predictions, gold, StateMode(mode), human)


# --- induce's reply walker, JSON-lines reader, window filter and corpus read ----
# As they were before ``induce`` stopped building gold states: the walker
# tried each line prefix in turn, each JSON line went through ``json.loads``,
# the confidence filter bisected every slot past its grace period, and the
# corpus was read with a gold DialogueState on each labeled turn.


def ref_walk_block(text, header, missing, known=None):
    lines = text.splitlines()
    try:
        start = next(i for i, ln in enumerate(lines) if ln.strip() == header)
    except StopIteration:
        raise missing(f"no {header!r} line found") from None

    warnings = []
    texts = {}
    descriptions = {}
    domain = None
    last_key = None
    for lineno, raw in enumerate(lines[start + 1 :], start=start + 2):
        line = raw.strip()
        if not line:
            continue
        if line == "##" or line.startswith("## "):
            domain = line[3:].strip() or None
            if domain is None:
                warnings.append(f"line {lineno}: empty domain header")
            last_key = None
            continue
        if line.startswith("# "):
            break  # next top-level block
        if line.startswith("* "):
            last_key = None
            if domain is None:
                warnings.append(f"line {lineno}: bullet outside any domain section")
                continue
            name, sep, value = line[2:].partition(":")
            if not sep:
                warnings.append(f"line {lineno}: bullet without colon: {line!r}")
                continue
            try:
                k = canonical_slot_key(domain, name)
            except InvalidSlotName:
                warnings.append(f"line {lineno}: empty slot name")
                continue
            if k in texts:
                warnings.append(f"line {lineno}: duplicate slot {k}, keeping last")
                descriptions.pop(k, None)
            texts[k] = value.strip()
            last_key = k
            continue
        if known is not None and line.startswith("-"):
            if last_key is None:
                warnings.append(f"line {lineno}: description line without preceding bullet")
            elif last_key in known:
                warnings.append(
                    f"line {lineno}: description attached to known slot {last_key}, ignored"
                )
            else:
                descriptions[last_key] = line[1:].strip()
            last_key = None
            continue
        warnings.append(f"line {lineno}: unrecognized line {line!r}")
        last_key = None
    return texts, descriptions, warnings


def walk_outcome(walk, *args):
    try:
        texts, descriptions, warnings = walk(*args)
    except (MissingTypesHeader, MissingValuesHeader) as exc:
        return type(exc).__name__, str(exc)
    return "ok", list(texts.items()), list(descriptions.items()), warnings


@settings(max_examples=500, deadline=None)
@example("# Key Information Values\n## Hotel\n* area: north\n- new\n*x\n#x\n-- y\n# Dialogue",
         seqio.VALUES_HEADER, None)
@given(block_texts, st.sampled_from([seqio.VALUES_HEADER, seqio.TYPES_HEADER]),
       st.none() | st.lists(slot_defs, max_size=4).map(schema_of))
def test_reply_walker_matches_old_walker(text, header, known):
    missing = MissingValuesHeader if header == seqio.VALUES_HEADER else MissingTypesHeader
    assert walk_outcome(seqio._walk_block, text, header, missing, known) == walk_outcome(
        ref_walk_block, text, header, missing, known)


def ref_load_json_lines(path, parse):
    out = []
    for lineno, line in enumerate(seqio.read_utf8(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise seqio.CorpusFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except ValueError as exc:
            raise seqio.CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
    return out


# JSON values and the lines around them: blank ones, CRLF endings, a BOM,
# whitespace before or after, trailing garbage and lines that are no JSON.
json_values = st.sampled_from([
    '{"a": 1}', '{"b": [1, 2.5, null], "a": "x"}', '"text"', '"\\u2028   \u0085"', "7",
    "-0.5e3", "true", "null", "[]", "NaN", "-Infinity", '{"a": {"b": {}}}', '"café"',
])
json_lines = st.one_of(
    json_values,
    st.tuples(st.sampled_from(["", " ", "\t", "﻿", "\r"]), json_values,
              st.sampled_from(["", " ", "\r", "\t ", " x", "}", ",", '{"c": 2}']))
    .map("".join),
    st.sampled_from(["", "   ", "\r", "\t", "{", '{"a": ', '{"a" 1}', "[1, 2", "nul", '"open',
                     "'single'", "{'a': 1}", "1 2", "﻿", "\x0c"]),
)


def rejecting(value):
    """A line parser that rejects some values, as a state-log or script reader does."""
    if value == 7 or value is None:
        raise ValueError(f"rejected {value!r}")
    return value


def read_outcome(read, path):
    try:
        return "ok", repr(read(path, rejecting))  # repr: NaN is not equal to itself
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(json_lines, max_size=8), st.sampled_from(["", "\n", "\r\n"]))
def test_json_lines_reader_matches_old_reader(lines, end):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        path.write_bytes(("\n".join(lines) + end).encode("utf-8"))
        assert read_outcome(seqio.load_json_lines, path) == read_outcome(
            ref_load_json_lines, path)


def ref_windowed_filter(schema, stats, cfg, current_dialogue):
    w, tau = cfg.window_w, cfg.threshold_tau
    doomed = []
    for slot in schema:
        if slot.discovered_at == GOLD:
            continue
        fills = stats.get(slot.key, ())
        discovered = fills[0] if fills else current_dialogue
        if current_dialogue - discovered < w:
            continue
        recent = bisect_right(fills, current_dialogue) - bisect_right(fills, current_dialogue - w)
        if recent < tau:
            doomed.append(slot.key)
    return schema.without_keys(doomed)


# Fill tables as a stream records them, ascending with at most one fill per
# dialogue, with fills on both sides of the current dialogue and past it.
fill_tables = st.dictionaries(
    keys, st.lists(st.integers(0, 30), max_size=8, unique=True).map(sorted), max_size=8)
filter_schemas = st.lists(
    st.builds(SlotDef, keys, st.just(""),
              st.just(GOLD) | st.tuples(st.integers(0, 30), st.integers(0, 9))),
    max_size=10,
).map(schema_of)


@settings(max_examples=500, deadline=None)
@given(filter_schemas, fill_tables, st.integers(1, 8), st.integers(1, 5), st.integers(0, 30))
def test_window_filter_matches_bisecting_filter(schema, table, w, tau, current):
    cfg = FilterConfig(window_w=w, threshold_tau=tau)
    stats = SlotStats({k: list(fills) for k, fills in table.items()})
    got, want = confidence_filter(schema, stats, cfg, current), ref_windowed_filter(
        schema, SlotStats(table), cfg, current)
    assert got == want
    assert got.version == want.version
    assert render_schema_block(got) == ref_render_schema_block(got)
    assert stats == table


def ref_read_corpus(obj):
    seqio._check_fields(obj, seqio._CORPUS_FIELDS, "corpus file")
    gold = obj.get("gold_schema")
    gold_schema = None if gold is None else seqio.schema_from_obj(gold)
    dialogues = []
    first_index = {}
    for i, d in enumerate(obj["dialogues"]):
        seqio._check_fields(d, seqio._DIALOGUE_FIELDS, f"dialogues[{i}]")
        first = first_index.setdefault(d["id"], i)
        if first != i:
            raise seqio.CorpusFormatError(
                f"dialogues[{i}]: id {d['id']!r} repeats that of dialogues[{first}]"
            )
        turns = []
        for j, t in enumerate(d["turns"]):
            try:
                seqio._check_fields(t, seqio._TURN_FIELDS)
                state = t.get("state")
                values = None if state is None else seqio._state_values(state)
                turns.append(Turn(t["speaker"], t["text"],
                                  None if values is None else DialogueState.from_values(values)))
            except ValueError as exc:
                raise seqio.CorpusFormatError(f"dialogue {d['id']!r} turn {j}: {exc}") from exc
        try:
            dialogues.append(Dialogue(d["id"], d["scenario_id"], turns))
        except ValueError as exc:
            raise seqio.CorpusFormatError(str(exc)) from exc
    return CorpusFile(tuple(dialogues), gold_schema, obj["format_version"])


def ref_load_corpus(path):
    obj = seqio.load_json(path)
    try:
        return ref_read_corpus(obj)
    except seqio.CorpusFormatError as exc:
        raise seqio.CorpusFormatError(f"{path}: {exc}") from exc


def bare(corpus):
    """A corpus without its gold states."""
    return CorpusFile(tuple(Dialogue(d.id, d.scenario_id, tuple(Turn(t.speaker, t.text)
                                                                   for t in d.turns))
                            for d in corpus.dialogues),
                      corpus.gold_schema, corpus.format_version)


@st.composite
def corpus_documents(draw):
    """Corpus documents as ``evaluate_cases`` draws them, half of them with
    one or two more faults, which may repeat one another."""
    corpus = draw(evaluate_cases())[1]
    if draw(st.booleans()):
        for fault in draw(st.lists(st.sampled_from(CORPUS_FAULTS), min_size=1, max_size=2)):
            _break_corpus(draw, corpus, fault)
    return corpus


@settings(max_examples=400, deadline=None)
@given(corpus_documents())
def test_corpus_readers_match_old_read(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        path.write_text(canonical_json(corpus), encoding="utf-8")
        want = error_of(ref_load_corpus, path)
        if want[0] != "ok":
            assert error_of(seqio.load_corpus, path) == want
            assert error_of(seqio.load_stream, path) == want
            assert error_of(seqio.load_gold_states, path) == want
            return
        stream = seqio.load_stream(path)
        assert seqio.load_corpus(path) == want[1]
        assert stream == bare(want[1])
        assert all(t.gold_state is None for d in stream.dialogues for t in d.turns)


# --- training and revision pairs over the one gold-turn walk -------------------


def ref_require_gold(corpus):
    if corpus.gold_schema is None:
        raise seqio.MissingGoldError("corpus has no gold schema")
    for dialogue in corpus.dialogues:
        for i in dialogue.user_turn_indices():
            if dialogue.turns[i].gold_state is None:
                raise seqio.MissingGoldError(
                    f"dialogue {dialogue.id} turn {i} has no gold state"
                )
    return corpus.gold_schema


def ref_gold_turns(dialogue, mode):
    for i, target in gold_targets(user_turn_states(dialogue), mode):
        if target is not None:
            state = dialogue.turns[i].gold_state
            yield i, state, DialogueState(target) if mode is StateMode.UPDATE else state


def ref_with_discoveries(state, introduced, gold_schema):
    new_descriptions = {
        k: (gold_schema.get(k).description if gold_schema.get(k) else "")
        for k in state.keys()
        if k not in introduced
    }
    return DialogueState(state.triples, new_descriptions)


def ref_build_training_sequences(corpus, mode):
    gold_schema = ref_require_gold(corpus)
    introduced = set()
    pairs = []
    for dialogue in corpus.dialogues:
        for turn_index, gold_state, target_state in ref_gold_turns(dialogue, mode):
            target_state = ref_with_discoveries(target_state, introduced, gold_schema)
            prompt_schema = gold_schema.restricted_to(introduced)
            prompt = render_prompt(prompt_schema, dialogue, turn_index)
            pairs.append((prompt, render_state_block(target_state)))
            introduced |= gold_state.keys()
        if mode is StateMode.FINAL:
            for _, state, _ in ref_gold_turns(dialogue, StateMode.STATE):
                introduced |= state.keys()
    return pairs


def ref_build_revision_pairs(corpus, noisy_states, seed):
    if corpus.gold_schema is None:
        raise seqio.MissingGoldError("corpus has no gold schema")
    noisy_by_position = {(e.dialogue_id, e.turn_index): e.state for e in noisy_states}
    rng = random.Random(seed)
    noisy_schema = SlotSchema()
    introduced = set()
    pairs = []
    for dialogue in corpus.dialogues:
        for turn_index in dialogue.user_turn_indices():
            gold_state = dialogue.turns[turn_index].gold_state
            if gold_state is not None:
                introduced |= gold_state.keys()
            noisy_state = noisy_by_position.get((dialogue.id, turn_index))
            if noisy_state is not None:
                noisy_schema = schema_update(noisy_schema, noisy_state)
            gold_t = corpus.gold_schema.restricted_to(introduced)
            if len(gold_t) == 0:
                continue
            strategy = refine.NoiseStrategy.draw(rng)
            noised, target = refine.make_revision_example(gold_t, noisy_schema, strategy)
            pairs.append((seqio.render_revision_prompt(noised), render_schema_block(target)))
    return pairs


@st.composite
def gold_corpora_and_noisy_logs(draw):
    """A gold corpus over the small vocabulary and a prior run's log against
    it. Each later user turn keeps, changes or drops every slot of the turn
    before and may add new ones, so some slots are valued only before a
    dialogue's last user turn; now and then a user turn has no gold state,
    or the corpus no gold schema. The log values random slots, some of them
    described, at user turns, agent turns, turns past a dialogue's end and
    a dialogue the corpus lacks, and may value one position twice."""
    gold_keys = draw(st.lists(keys, min_size=1, max_size=8, unique=True))
    schema = SlotSchema(tuple(
        SlotDef(k, draw(st.sampled_from(["", "a thing", "the price"]))) for k in gold_keys))
    gaps = draw(st.integers(0, 4)) == 0
    dialogues = []
    for d in range(draw(st.integers(1, 4))):
        turns = []
        state = {}
        for _ in range(draw(st.integers(1, 4))):
            for k in list(state):
                fate = draw(st.sampled_from(["keep", "change", "drop"]))
                if fate == "drop":
                    del state[k]
                elif fate == "change":
                    state[k] = draw(values)
            state.update(draw(st.dictionaries(st.sampled_from(gold_keys), values, max_size=3)))
            gold = None if gaps and draw(st.booleans()) else DialogueState.from_values(state)
            turns += [Turn("user", f"u{d}.{len(turns)}", gold), Turn("agent", f"a{d}.{len(turns)}")]
        if draw(st.booleans()):
            turns.pop()  # the dialogue ends on a user turn
        dialogues.append(Dialogue(f"d{d}", "s1", tuple(turns)))
    corpus = CorpusFile(tuple(dialogues), None if draw(st.integers(0, 19)) == 0 else schema)
    positions = [(d.id, i) for d in dialogues for i in range(len(d.turns) + 1)] + [("ghost", 0)]
    log = []
    for dialogue_id, turn in draw(st.lists(st.sampled_from(positions), max_size=12)):
        predicted = draw(st.dictionaries(keys, values, max_size=3))
        described = {k: draw(st.sampled_from(["new", "a thing"]))
                     for k in predicted if draw(st.booleans())}
        log.append(StateLogEntry(dialogue_id, turn, DialogueState.from_values(predicted, described)))
    return corpus, log


@settings(max_examples=200, deadline=None)
@given(gold_corpora_and_noisy_logs(), st.integers(0, 2**32))
def test_pairs_match_old_builders(drawn, seed):
    corpus, log = drawn
    for mode in StateMode:
        assert error_of(seqio.build_training_sequences, corpus, mode) == error_of(
            ref_build_training_sequences, corpus, mode)
    for run_seed in (0, 4, seed):
        assert error_of(refine.build_revision_pairs, corpus, log, run_seed) == error_of(
            ref_build_revision_pairs, corpus, log, run_seed)


# --- the field checker of every artifact object --------------------------------
# ``_check_fields`` took each spec as a dict of field -> JSON types and read
# each value into a local; it now walks (field, types) pairs.

_REF_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object",
                   type(None): "null"}


def ref_check_fields(obj, fields, where=None):
    if type(obj) is not dict:
        reason = f"must be an object, got {type(obj).__name__}"
    else:
        for name, types in fields.items():
            value = obj.get(name)
            if type(value) not in types:
                reason = (f"missing {name!r}" if name not in obj else f"{name!r} must be "
                          f"{' or '.join(_REF_JSON_TYPES[t] for t in types)}, "
                          f"got {seqio._type_name(value)}")
                break
        else:
            return
    raise seqio.CorpusFormatError(reason if where is None else f"{where}: {reason}")


FIELD_SPECS = [seqio._CORPUS_FIELDS, seqio._DIALOGUE_FIELDS, seqio._TURN_FIELDS,
               seqio._SCHEMA_FIELDS, seqio._DOMAIN_FIELDS, seqio._SLOT_FIELDS,
               seqio._LOG_ENTRY_FIELDS]
FIELD_NAMES = sorted({name for spec in FIELD_SPECS for name, _ in spec} | {"extra"})
# a value of every JSON type, a bool among the integers
json_values = st.sampled_from(["s", "", 0, 7, -1, True, False, 2.5, None, [], [1], {}, {"a": "b"}])


@st.composite
def checked_objects(draw):
    """A spec and an object to check against it: mostly a JSON object that
    holds each of the spec's fields, now and then with one left out or of
    another type, sometimes a value that is no object."""
    spec = draw(st.sampled_from(FIELD_SPECS))
    if draw(st.integers(0, 9)) == 0:
        return spec, draw(json_values)
    good = {type(None): None, str: "s", int: 3, list: [], dict: {}}
    obj = {name: good[draw(st.sampled_from(types))] for name, types in spec}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(FIELD_NAMES))
        if draw(st.booleans()):
            obj.pop(name, None)
        else:
            obj[name] = draw(json_values)
    return spec, obj


@settings(max_examples=2000, deadline=None)
@given(checked_objects(), st.sampled_from([None, "corpus file", "dialogues[3]"]))
def test_check_fields_matches_old_checker(drawn, where):
    spec, obj = drawn
    assert error_of(seqio._check_fields, obj, spec, where) == error_of(
        ref_check_fields, obj, dict(spec), where)
