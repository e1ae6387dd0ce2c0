import json
import random
import re
import sys
import threading
from unittest import mock

import pytest

from slotweaver import seqio
from slotweaver.core import (
    Dialogue,
    DialogueState,
    SlotDef,
    SlotKey,
    SlotSchema,
    Turn,
    canonical_slot_key,
    schema_update,
)
from slotweaver.induct import run_induction
from slotweaver.seqio import (
    CorpusFile,
    CorpusFormatError,
    MissingGoldError,
    MissingValuesHeader,
    StateLogEntry,
    StateMode,
    build_training_sequences,
    canonical_json,
    corpus_from_obj,
    corpus_to_obj,
    load_corpus,
    parse_schema_block,
    parse_state_block,
    render_prompt,
    render_schema_block,
    render_state_block,
    save_corpus,
    save_training_pairs,
    schema_from_obj,
    schema_to_obj,
)

from conftest import (
    GARDEN_GREEN_BLOCK,
    Recorder,
    key,
    make_dialogue,
    random_schema,
    random_state,
)


class TestRenderPrompt:
    def test_empty_schema_one_turn(self):
        d = make_dialogue("d0", 1)
        text = render_prompt(SlotSchema(), d, 0)
        assert text.count("# Key Information Types") == 1
        assert text.count("# Dialogue") == 1
        assert "##" not in text
        assert "User: user message 0" in text
        assert text.endswith("Identify Key Information Values from the Dialogue")

    def test_garden_schema_layout(self, garden_schema):
        d = make_dialogue("d0", 1)
        text = render_prompt(garden_schema, d, 0)
        assert text.count("\n## ") == 2
        assert text.count("\n* ") == 5
        assert "## Garden Layouts" in text
        assert "## Plant Selections" in text

    def test_headers_in_order(self, garden_schema):
        d = make_dialogue("d0", 2)
        text = render_prompt(garden_schema, d, 2)
        assert text.index("# Key Information Types") < text.index("# Dialogue")

    def test_char_budget_truncates_oldest_turns(self):
        d = make_dialogue("d0", 10)
        with mock.patch.object(seqio, "CONTEXT_BUDGET", 120):
            text = render_prompt(SlotSchema(), d, 18)
        assert "user message 0" not in text
        assert "user message 9" in text

    def test_schema_round_trip(self):
        rng = random.Random(3)
        for _ in range(1000):
            schema = random_schema(rng)
            parsed, warnings = parse_schema_block(render_schema_block(schema))
            assert not warnings
            assert {s.key: s.description for s in parsed} == {
                s.key: s.description for s in schema
            }

    def test_threads_racing_on_one_schema_get_one_block_and_equal_keys(self):
        # more threads than cores, switching often, on a schema nobody has
        # rendered yet: every thread must see the block of a fresh render
        slots = tuple(SlotDef(key(f"domain {i % 7}", f"slot {i}"), f"desc {i}") for i in range(300))
        schema = SlotSchema(slots)
        want = render_schema_block(SlotSchema(slots))
        barrier = threading.Barrier(8)
        blocks, keys = [], []

        def work(t):
            barrier.wait(timeout=10)
            for i in range(50):
                blocks.append(render_schema_block(schema))
                keys.append(canonical_slot_key(f"Race_{t}", f"Slot  {i % 5}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t % 2,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(blocks) == 400 and set(blocks) == {want}
        assert set(keys) == {SlotKey(f"race {t}", f"slot {i}") for t in range(2) for i in range(5)}

    def test_one_new_slot_renders_one_section(self, monkeypatch):
        six = SlotSchema(tuple(SlotDef(key(f"domain {d}", f"slot {i}"), f"desc {d}.{i}")
                               for i in range(3) for d in range(6)))
        render_schema_block(six)
        rendered = []
        real_section = seqio._section

        def counting_section(domain, bullets):
            rendered.append(domain)
            return real_section(domain, bullets)

        monkeypatch.setattr(seqio, "_section", counting_section)
        grown = six.with_slots([SlotDef(key("domain 3", "slot new"), "added")])
        assert render_schema_block(grown) == render_schema_block(SlotSchema(grown.slots))
        # the fresh copy rendered all six; the derived schema only its change
        assert rendered == ["domain 3"] + [f"domain {d}" for d in range(6)]
        rendered.clear()
        shrunk = grown.without_keys([key("domain 5", "slot 1")])
        updated = schema_update(grown, DialogueState.from_pairs([(key("domain 6", "x"), "v")]))
        render_schema_block(shrunk)
        render_schema_block(updated)
        assert rendered == ["domain 5", "domain 6"]


class TestParseStateBlock:
    def test_garden_green_block(self, garden_schema):
        prediction = parse_state_block(GARDEN_GREEN_BLOCK, garden_schema)
        state = prediction.state
        assert len(state.triples) == 6
        assert state.as_dict()[key("garden layouts", "style")] == "desert"
        assert state.as_dict()[key("plant selections", "sunlight")] == "Full Sun"
        assert dict(state.new_slot_descriptions) == {
            key("plant selections", "sunlight"): "the plant's sun requirements"
        }
        assert prediction.parse_warnings == ()

    def test_empty_text_raises(self, garden_schema):
        with pytest.raises(MissingValuesHeader):
            parse_state_block("", garden_schema)

    def test_stray_line_warns_but_keeps_state(self, garden_schema):
        clean = parse_state_block(GARDEN_GREEN_BLOCK, garden_schema)
        noisy_text = GARDEN_GREEN_BLOCK.replace(
            "* features: fountain", "* features: fountain\nby the way, anything helps"
        )
        noisy = parse_state_block(noisy_text, garden_schema)
        assert noisy.state == clean.state
        assert len(noisy.parse_warnings) == 1

    def test_duplicate_bullet_last_wins(self, garden_schema):
        text = (
            "# Key Information Values\n\n## Garden Layouts\n"
            "* style: desert\n* style: oasis\n"
        )
        prediction = parse_state_block(text, garden_schema)
        assert prediction.state.as_dict()[key("garden layouts", "style")] == "oasis"
        assert len(prediction.parse_warnings) == 1

    def test_keys_that_print_alike_are_duplicates(self, tmp_path):
        # the state log keys descriptions by str(key), which would give the
        # first key the second one's description
        prediction = parse_state_block(COLLIDING_BLOCK, SlotSchema())
        assert prediction.state.as_dict() == {key("c/a", "b"): "w"}
        assert prediction.state.new_slot_descriptions == {key("c/a", "b"): "second"}
        assert prediction.parse_warnings == ("line 6: duplicate slot c/a/b, keeping last",)
        entries = [StateLogEntry("d1", 0, prediction.state, 0)]
        log, report = tmp_path / "states.jsonl", tmp_path / "report.json"
        seqio.save_run_log({"states": entries}, log, report)
        assert seqio.load_state_log(log) == entries

    def test_state_round_trip(self):
        rng = random.Random(5)
        for _ in range(1000):
            state = random_state(rng)
            known = SlotSchema(
                tuple(
                    SlotDef(k)
                    for k in sorted(state.keys() - set(state.new_slot_descriptions))
                )
            )
            parsed = parse_state_block(render_state_block(state), known)
            assert parsed.state == state
            assert parsed.parse_warnings == ()

    def test_fuzz_never_raises_unexpectedly(self, garden_schema):
        rng = random.Random(9)
        for _ in range(5000):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
            text = raw.decode("utf-8", errors="replace")
            try:
                parse_state_block(text, garden_schema)
            except MissingValuesHeader:
                pass


# Hand-built malformed outputs with their expected (triples, discoveries).
H = "# Key Information Values\n"
COLLIDING_BLOCK = H + "## c\n* a/b: v\n- first\n## c/a\n* b: w\n- second\n"
MALFORMED_CASES = [
    (H, 0, 0),
    (H + "* area: north\n", 0, 0),  # bullet before any domain
    (H + "## Hotel\n* area: north\n", 1, 1),
    (H + "## Hotel\narea: north\n", 0, 0),  # missing bullet marker
    (H + "## Hotel\n* area north\n", 0, 0),  # missing colon
    (H + "## Hotel\n* : north\n", 0, 0),  # empty name
    (H + "##\n* area: north\n", 0, 0),  # empty domain header
    (H + "## Hotel\n* area: north\n##\n* day: monday\n", 1, 1),  # ``##`` closes the section
    (H + "## Hotel\n* area: north\n- near the sea\n", 1, 1),
    (H + "## Hotel\n- near the sea\n", 0, 0),  # description without bullet
    (H + "## Hotel\n* area: north\n\n\n* price: low\n", 2, 2),
    (H + "## Hotel\n* area: north\n# Other Section\n* price: low\n", 1, 1),
    (H + "## Hotel\n* area: north\njunk junk\n* price: low\n", 2, 2),
    (H + "## Hotel\n* area: north\n* area: south\n", 1, 1),
    (H + "## Hotel\n* area: north\n## Hotel\n* price: low\n", 2, 2),
    (H + "## Hotel\n* area:\n", 1, 1),  # empty value accepted
    (H + "## Hotel\n* Area : north\n## HOTEL\n* area: south\n", 1, 1),  # caseless dup
    ("preamble text\n" + H + "## Hotel\n* area: north\n", 1, 1),
    (H + "## Hotel\n* area: north: east\n", 1, 1),  # colon inside value
    (H + "   \n\t\n## Hotel\n* area: north\n", 1, 1),
    (H + "## Hotel\n* area: north\n- desc one\n- desc two\n", 1, 1),
    (COLLIDING_BLOCK, 1, 1),  # ("c", "a/b") and ("c/a", "b") both print as c/a/b
]


@pytest.mark.parametrize("text,n_triples,n_discoveries", MALFORMED_CASES)
def test_malformed_fixture_set(text, n_triples, n_discoveries):
    prediction = parse_state_block(text, SlotSchema())
    assert len(prediction.state.triples) == n_triples
    assert len(prediction.state.new_slot_descriptions) == n_discoveries


def _gold_states(specs):
    return [
        DialogueState.from_pairs([(key(d, n), v) for d, n, v in spec]) for spec in specs
    ]


def _gold_corpus():
    schema = SlotSchema(
        (
            SlotDef(key("hotel", "area"), "the area"),
            SlotDef(key("hotel", "price"), "the price"),
            SlotDef(key("train", "day"), "travel day"),
        )
    )
    d1 = make_dialogue(
        "d1",
        3,
        scenario_id="scn-a",
        gold_states=_gold_states(
            [
                [("hotel", "area", "north")],
                [("hotel", "area", "north")],  # unchanged at turn 2
                [("hotel", "area", "north"), ("hotel", "price", "cheap")],
            ]
        ),
    )
    d2 = make_dialogue(
        "d2",
        2,
        scenario_id="scn-b",
        gold_states=_gold_states(
            [[("train", "day", "monday")], [("train", "day", "friday")]]
        ),
    )
    return CorpusFile((d1, d2), schema)


class TestCorpusIO:
    def test_minimal_round_trip(self, tmp_path):
        corpus = CorpusFile((make_dialogue("d1", 1),), None)
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_empty_gold_schema_round_trip(self, tmp_path):
        # simulate writes this when every scenario is lost: an empty schema, not none
        corpus = CorpusFile((), SlotSchema())
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        assert json.loads(path.read_text())["gold_schema"] == {"domains": []}
        assert load_corpus(path) == corpus

    def test_gold_state_outside_schema_rejected(self):
        schema = SlotSchema((SlotDef(key("hotel", "area")),))
        d = make_dialogue(
            "d1", 1, gold_states=_gold_states([[("train", "day", "monday")]])
        )
        with pytest.raises(CorpusFormatError):
            CorpusFile((d,), schema)

    def test_stray_gold_slot_is_refused_by_one_walk(self, tmp_path, monkeypatch):
        # a built corpus walks its gold states for a slot the schema lacks; a
        # file's were walked by _read_corpus, so its corpus skips that walk,
        # and both refuse the first stray with the same message
        message = ("dialogue d1 turn 0: gold state uses slots absent from gold schema: "
                   "['train/day']")
        schema = SlotSchema((SlotDef(key("hotel", "area")),))
        d = make_dialogue("d1", 1, gold_states=_gold_states([[("train", "day", "monday")]]))
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            CorpusFile((d,), schema)
        obj = corpus_to_obj(CorpusFile((d,), None))
        obj["gold_schema"] = schema_to_obj(schema)
        path = tmp_path / "stray.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for load in (load_corpus, seqio.load_stream):
            with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: {message}")):
                load(path)

        walks = []
        refuse = seqio._refuse_stray_slots
        monkeypatch.setattr(seqio, "_refuse_stray_slots",
                            lambda *args: walks.append(args) or refuse(*args))
        corpus = _gold_corpus()
        assert len(walks) == 1
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus
        assert seqio.load_stream(path).gold_schema == corpus.gold_schema
        assert len(walks) == 1

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dialogues": []}), encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_repeated_dialogue_id_rejected(self):
        obj = corpus_to_obj(CorpusFile(
            (make_dialogue("d0", 1), make_dialogue("d1", 1), make_dialogue("d2", 1)), None))
        obj["dialogues"][2]["id"] = "d0"
        with pytest.raises(CorpusFormatError,
                           match=re.escape("dialogues[2]: id 'd0' repeats that of dialogues[0]")):
            corpus_from_obj(obj)

    def test_stream_keeps_no_gold_state(self, tmp_path, monkeypatch):
        # induce reads the corpus as a stream: its turns, checked as
        # load_corpus checks them, and no gold DialogueState
        corpus = _gold_corpus()
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        monkeypatch.setattr(DialogueState, "__init__", None)
        monkeypatch.setattr(DialogueState, "from_values", None)
        stream = seqio.load_stream(path)
        assert stream.gold_schema == corpus.gold_schema
        assert [[(t.speaker, t.text, t.gold_state) for t in d.turns] for d in stream.dialogues] == [
            [(t.speaker, t.text, None) for t in d.turns] for d in corpus.dialogues]

    def test_canonical_serialization_stable(self, tmp_path):
        corpus = _gold_corpus()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_corpus(corpus, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_random_corpora_round_trip(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 4)
            dialogues = tuple(make_dialogue(f"d{i}", rng.randrange(1, 4)) for i in range(n))
            corpus = CorpusFile(dialogues, random_schema(rng) or None)
            obj = corpus_to_obj(corpus)
            # identity on the documented fields (domain-grouped schema layout)
            assert corpus_to_obj(corpus_from_obj(json.loads(canonical_json(obj)))) == obj

    @pytest.mark.parametrize("obj, message", [
        ({"domains": {"hotel": []}}, "schema: 'domains' must be a list, got dict"),
        ({"domains": [{"name": 5, "slots": []}]},
         "schema domains[0]: 'name' must be a string, got int"),
        ({"domains": [{"name": "hotel", "slots": 5}]},
         "schema domains[0]: 'slots' must be a list, got int"),
        ({"domains": [{"name": "hotel", "slots": [{"name": "area"}, {"name": 5}]}]},
         "schema domain 'hotel' slot 1: 'name' must be a string, got int"),
        ({"domains": [{"name": "hotel", "slots": [{"name": "area", "description": ["x"]}]}]},
         "schema domain 'hotel' slot 0: 'description' must be a string or null, got list"),
        ({"domains": [{"name": "hotel", "slots": [{"name": " "}]}]},
         "schema domain 'hotel' slot 0: empty slot name: ' '"),
    ])
    def test_schema_field_of_the_wrong_type_rejected(self, obj, message):
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            schema_from_obj(obj)

    def test_schema_slot_description_may_be_null_or_left_out(self):
        obj = {"domains": [{"name": "hotel", "slots": [{"name": "area", "description": None},
                                                       {"name": "stars"}]}]}
        assert [s.description for s in schema_from_obj(obj)] == ["", ""]

    def test_schema_obj_round_trip(self):
        rng = random.Random(17)
        for _ in range(300):
            schema = random_schema(rng)
            loaded = schema_from_obj(schema_to_obj(schema))
            assert {s.key: s.description for s in loaded} == {
                s.key: s.description for s in schema
            }


class TestStateLogEntry:
    def test_described_discovery_round_trips(self):
        k = key("plant selections", "sunlight")
        state = DialogueState.from_pairs(
            [(k, "Full Sun"), (key("plant selections", "type"), "Flower")],
            {k: "the plant's sun requirements"},
        )
        entry = StateLogEntry("d1", 2, state, 0)
        loaded = StateLogEntry.from_obj(json.loads(canonical_json(entry.to_obj())))
        assert loaded == entry
        assert loaded.state.new_slot_descriptions[k] == "the plant's sun requirements"

    def test_random_entries_round_trip(self):
        rng = random.Random(29)
        for i in range(300):
            entry = StateLogEntry(f"d{i}", rng.randrange(6), random_state(rng), rng.choice([None, i]))
            assert StateLogEntry.from_obj(json.loads(canonical_json(entry.to_obj()))) == entry

    def test_description_of_an_unvalued_key_is_ignored(self):
        obj = {"dialogue_id": "d1", "turn": 0, "state": {"hotel": {"area": "north"}},
               "new_slot_descriptions": {"hotel/area": "the part of town", "hotel/gone": "x"}}
        entry = StateLogEntry.from_obj(obj)
        assert dict(entry.state.new_slot_descriptions) == {key("hotel", "area"): "the part of town"}
        del obj["new_slot_descriptions"]
        assert StateLogEntry.from_obj(obj).state.new_slot_descriptions == {}

    @pytest.mark.parametrize("description, got", [
        (None, "null"), ([1], "list"), ({"a": 1}, "dict"), (3, "int"), (2.5, "float"),
        (True, "bool"),
    ])
    def test_description_that_is_not_a_string_names_file_and_line(self, tmp_path,
                                                                   description, got):
        # a description naming no valued key is refused too, not ignored
        entry = {"dialogue_id": "d1", "turn": 0, "state": {"hotel": {"area": "north"}}}
        path = tmp_path / "states.jsonl"
        path.write_text("\n".join([
            json.dumps(entry),
            json.dumps({**entry, "turn": 2,
                        "new_slot_descriptions": {"hotel/area": "the part of town"}}),
            json.dumps({**entry, "turn": 4, "new_slot_descriptions": {"hotel/gone": description}}),
        ]) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as caught:
            seqio.load_state_log(path)
        assert str(caught.value) == (f"{path}:3: new slot 'hotel/gone' description must be a "
                                     f"string, got {got}")

    def test_descriptions_not_an_object_rejected(self):
        obj = {"dialogue_id": "d1", "turn": 0, "state": {"hotel": {"area": "north"}},
               "new_slot_descriptions": ["hotel/area"]}
        with pytest.raises(CorpusFormatError):
            StateLogEntry.from_obj(obj)

    def test_log_file_keeps_line_separators_inside_strings(self, tmp_path):
        # ensure_ascii=False leaves U+2028, U+2029 and U+0085 unescaped, and
        # str.splitlines() splits at each; only a newline ends a log line
        entries = [
            StateLogEntry(f"d{sep}1", 0,
                          DialogueState.from_pairs([(key("hotel", "area"), f"a{sep}b")]), i)
            for i, sep in enumerate("\u2028\u2029\x85")
        ]
        path = tmp_path / "states.jsonl"
        seqio.save_json_lines([e.to_obj() for e in entries], path)
        assert seqio.load_state_log(path) == entries


class TestTrainingSequences:
    def test_final_mode_one_pair_per_dialogue(self):
        pairs = build_training_sequences(_gold_corpus(), StateMode.FINAL)
        assert len(pairs) == 2

    def test_state_mode_one_pair_per_user_turn(self):
        pairs = build_training_sequences(_gold_corpus(), StateMode.STATE)
        assert len(pairs) == 5

    def test_update_mode_empty_delta(self):
        pairs = build_training_sequences(_gold_corpus(), StateMode.UPDATE)
        # turn 2 of d1 repeats turn 1's values: target is a bare header
        assert pairs[1][1] == "# Key Information Values"

    def test_update_changed_value_reappears(self):
        pairs = build_training_sequences(_gold_corpus(), StateMode.UPDATE)
        assert "friday" in pairs[4][1]
        assert "monday" not in pairs[4][1]

    def test_discoveries_marked_with_descriptions(self):
        pairs = build_training_sequences(_gold_corpus(), StateMode.STATE)
        assert "- the area" in pairs[0][1]  # first appearance is a discovery
        assert "- the area" not in pairs[1][1]  # already introduced

    def test_prompt_schema_grows_with_stream(self):
        pairs = build_training_sequences(_gold_corpus(), StateMode.STATE)
        assert "* area:" not in pairs[0][0]
        assert "* area: the area" in pairs[1][0]

    @pytest.mark.parametrize("mode", list(StateMode))
    def test_long_dialogue_prompts_carry_the_dialogue_induce_sends(self, mode):
        # 19 exchanges of about 1,200 characters: later turns exceed the budget
        exchanges = [(f"user {i}: " + "want " * 120, f"agent {i}: " + "okay " * 120)
                     for i in range(19)]
        gold = DialogueState.from_pairs([(key("hotel", "area"), "north")])
        turns = tuple(Turn(speaker, text, gold if speaker == "user" else None)
                      for pair in exchanges for speaker, text in zip(("user", "agent"), pair))
        schema = SlotSchema((SlotDef(key("hotel", "area"), "the area"),))
        corpus = CorpusFile((Dialogue("d1", "scn", turns),), schema)

        class Silent:
            def generate(self, request):
                return seqio.VALUES_HEADER

        backend = Recorder(Silent())
        run_induction(corpus, mode, None, backend)

        def dialogue_block(prompt):
            return prompt[prompt.index(seqio.DIALOGUE_HEADER):]

        sent = [dialogue_block(prompt) for prompt, _ in backend.calls]
        paired = [dialogue_block(prompt) for prompt, _ in build_training_sequences(corpus, mode)]
        assert paired == sent
        assert "user 0:" not in paired[-1] and "user 18:" in paired[-1]
        assert len(paired[-1]) < seqio.CONTEXT_BUDGET + 100

    def test_missing_gold_rejected(self):
        with pytest.raises(MissingGoldError):
            build_training_sequences(CorpusFile((make_dialogue("d", 1),), None), StateMode.STATE)

    def test_update_targets_accumulate_to_state_targets(self, garden_schema):
        corpus = _gold_corpus()
        state_pairs = build_training_sequences(corpus, StateMode.STATE)
        update_pairs = build_training_sequences(corpus, StateMode.UPDATE)
        i = 0
        for dialogue in corpus.dialogues:
            acc = {}
            for _ in dialogue.user_turn_indices():
                parsed = parse_state_block(update_pairs[i][1], SlotSchema())
                acc.update(parsed.state.as_dict())
                full = parse_state_block(state_pairs[i][1], SlotSchema())
                assert acc == full.state.as_dict()
                i += 1

    def test_pair_file_round_trip(self, tmp_path):
        pairs = build_training_sequences(_gold_corpus(), StateMode.STATE)
        path = tmp_path / "pairs.jsonl"
        save_training_pairs(pairs, path)
        assert seqio.load_json_lines(path, lambda obj: (obj["prompt"], obj["target"])) == pairs
