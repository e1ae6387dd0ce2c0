"""The keyed schema, the by-domain grouping, the update-mode delta, the
gold-turn walker, the refiners' fill table, the interned slot keys, the
memoized catalog render, the block parsers and renderers, and the
simulator's prompt templates and fenced-block retry against reference
copies of the code they replaced, on random inputs."""

import logging
import pickle
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from slotweaver import sim
from slotweaver.backend import GenerationRequest, ScriptedBackend
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
from slotweaver.refine import FilterConfig, SlotStats, make_refiner, record_state
from slotweaver.seqio import (
    MissingTypesHeader,
    MissingValuesHeader,
    StateMode,
    gold_turns,
    parse_schema_block,
    parse_state_block,
    render_schema_block,
    render_state_block,
)

from conftest import key

# A small vocabulary, so that random keys collide and domains repeat.
keys = st.builds(key, st.sampled_from(["hotel", "train", "garden"]),
                 st.sampled_from(["area", "price", "day", "style"]))
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
def test_changed_since_matches_value_of_filter(state, prev):
    assert state.changed_since(prev) == ref_delta(state, prev)


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
    got = [(i, target) for i, _, target in gold_turns(dialogue, mode)]
    assert got == list(ref_gold_state_stream(dialogue, mode))
    for i, gold, _ in gold_turns(dialogue, mode):
        assert gold is dialogue.turns[i].gold_state


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
    for domain, slots in schema.by_domain().items():
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


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("with_slots"), st.lists(slot_defs, max_size=4)),
        st.tuples(st.just("without_keys"), st.lists(keys, max_size=4)),
        st.tuples(st.just("restricted_to"), st.lists(keys, max_size=8)),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(schemas, _ops, st.lists(st.booleans(), min_size=9, max_size=9))
def test_cached_render_matches_old_render(schema, ops, early):
    chain = [schema]
    for op, arg in ops:
        chain.append(getattr(chain[-1], op)(arg))
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


# The two retry loops as they were before one helper replaced them.
def ref_generate_fields(backend, prompt, config):
    for attempt in range(2):
        response = backend.generate(
            GenerationRequest(prompt, max_output=config.max_output, temperature=config.temperature)
        )
        block = sim._fenced_block(response)
        if block is not None:
            parsed = sim._parse_fields(block)
            if parsed:
                return parsed
        if attempt == 0:
            sim.log.warning("definition block failed to parse, retrying")
    raise sim.SchemaDefinitionError(f"no parseable definition block for prompt: {prompt[:80]!r}")


def ref_generate_records(backend, prompt, config):
    for attempt in range(2):
        response = backend.generate(
            GenerationRequest(prompt, max_output=config.max_output, temperature=config.temperature)
        )
        block = sim._fenced_block(response)
        if block is not None:
            records = sim._parse_records(block)
            if records:
                return records
        if attempt == 0:
            sim.log.warning("record block failed to parse, retrying")
    raise sim.TaskInitError(f"no parseable record block for prompt: {prompt[:80]!r}")


NEW_RETRIES = {
    "fields": lambda backend, prompt, config: sim._generate_block(
        backend, prompt, config, sim._parse_fields, sim.SchemaDefinitionError, "definition"),
    "records": lambda backend, prompt, config: sim._generate_block(
        backend, prompt, config, sim._parse_records, sim.TaskInitError, "record"),
}
REF_RETRIES = {"fields": ref_generate_fields, "records": ref_generate_records}


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelname, record.getMessage()))


def retry_outcome(retry, replies, prompt, config):
    """(result or error, requests sent, log messages) of one retry loop over
    a script of replies; a call past the script's end raises ScriptExhausted."""
    backend = ScriptedBackend.from_responses(replies)
    sent = []
    generate = backend.generate
    backend.generate = lambda request: sent.append(request) or generate(request)
    messages = _Messages()
    sim.log.addHandler(messages)
    try:
        result = "ok", retry(backend, prompt, config)
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
       st.one_of(st.text(max_size=20), st.text(min_size=70, max_size=120)),
       st.builds(sim.SimConfig, max_output=st.integers(1, 2048),
                 temperature=st.sampled_from([0.0, 0.7, 1.5])))
def test_fenced_block_retry_matches_old_loops(kind, replies, prompt, config):
    got = retry_outcome(NEW_RETRIES[kind], replies, prompt, config)
    assert got == retry_outcome(REF_RETRIES[kind], replies, prompt, config)
