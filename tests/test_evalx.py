import json
import random

import pytest

from slotweaver.core import DialogueState, SlotDef, SlotSchema
from slotweaver.evalx import (
    EmptyPredictedSlot,
    IncompleteMapping,
    InvalidGold,
    SlotMapping,
    UnknownScenario,
    ValuedSlot,
    collect_valued_slots,
    evaluate_run,
    gold_valued_slots,
    load_human_mapping,
    mapping_agreement,
    match_slots,
    similarity_exact,
    slot_prf,
    value_prf,
)
from slotweaver.seqio import CorpusFile, StateLogEntry, StateMode

from conftest import key, make_dialogue


def vs(k, *fills):
    return ValuedSlot(k, frozenset(fills))


PA, PB, PC = key("p", "a"), key("p", "b"), key("p", "c")
GA, GB = key("g", "a"), key("g", "b")


class TestSimilarity:
    def test_full_overlap(self):
        p = vs(PA, ("d1", 0, "north"), ("d1", 2, "cheap"))
        g = vs(GA, ("d1", 0, "North"), ("d1", 2, "CHEAP"), ("d2", 0, "x"))
        assert similarity_exact(p, g) == 1.0

    def test_half_overlap_is_exactly_half(self):
        p = vs(PA, ("d1", 0, "north"), ("d1", 2, "wrong"))
        g = vs(GA, ("d1", 0, "north"))
        assert similarity_exact(p, g) == 0.5

    def test_context_must_match(self):
        p = vs(PA, ("d1", 0, "north"))
        g = vs(GA, ("d1", 2, "north"))  # same value, different turn
        assert similarity_exact(p, g) == 0.0
        g2 = vs(GA, ("d2", 0, "north"))  # same turn, different dialogue
        assert similarity_exact(p, g2) == 0.0

    def test_empty_predicted_rejected(self):
        with pytest.raises(EmptyPredictedSlot):
            similarity_exact(vs(PA), vs(GA, ("d", 0, "v")))

    def test_asymmetric(self):
        p = vs(PA, ("d1", 0, "a"))
        g = vs(GA, ("d1", 0, "a"), ("d1", 2, "b"))
        assert similarity_exact(p, g) == 1.0
        assert similarity_exact(ValuedSlot(GA, g.fills), ValuedSlot(PA, p.fills)) == 0.5


class TestMatchSlots:
    def test_threshold_boundary_inclusive(self):
        p = vs(PA, ("d1", 0, "yes"), ("d1", 2, "no"))
        g = vs(GA, ("d1", 0, "yes"))
        mapping = match_slots([p], [g])
        assert mapping.pairs == ((PA, GA),)  # similarity exactly 0.5 matches

    def test_below_threshold_unmatched(self):
        p = vs(PA, ("d1", 0, "yes"), ("d1", 2, "no"), ("d2", 0, "?"))
        g = vs(GA, ("d1", 0, "yes"))  # similarity 1/3
        mapping = match_slots([p], [g])
        assert mapping.pairs == ()
        assert mapping.unmatched_predicted == frozenset([PA])

    def test_argmax_picks_higher_similarity(self):
        p = vs(PA, ("d1", 0, "x"), ("d1", 2, "y"))
        g_partial = vs(GA, ("d1", 0, "x"))
        g_full = vs(GB, ("d1", 0, "x"), ("d1", 2, "y"))
        mapping = match_slots([p], [g_partial, g_full])
        assert mapping.pairs == ((PA, GB),)

    def test_tie_breaks_by_overlap_then_key(self):
        p = vs(PA, ("d1", 0, "x"), ("d1", 2, "y"))
        # equal similarity 0.5; zz wins on overlap? no: both overlap 1, key aa wins
        g1 = vs(key("g", "zz"), ("d1", 0, "x"))
        g2 = vs(key("g", "aa"), ("d1", 2, "y"))
        mapping = match_slots([p], [g1, g2])
        assert mapping.pairs == ((PA, key("g", "aa")),)

    def test_duplicate_gold_keys_rejected(self):
        g = vs(GA, ("d", 0, "v"))
        with pytest.raises(InvalidGold):
            match_slots([], [g, ValuedSlot(GA, frozenset([("d", 2, "w")]))])

    def test_empty_gold_leaves_all_unmatched(self):
        mapping = match_slots([vs(PA, ("d", 0, "v"))], [])
        assert mapping.unmatched_predicted == frozenset([PA])

    def test_matches_brute_force_oracle(self):
        rng = random.Random(31)
        dialogues = ["d1", "d2"]
        values = ["a", "b", "c"]
        for _ in range(400):
            def rand_slots(prefix, n):
                out = []
                for i in range(n):
                    fills = {
                        (rng.choice(dialogues), rng.randrange(3) * 2, rng.choice(values))
                        for _ in range(rng.randrange(1, 4))
                    }
                    out.append(vs(key(prefix, f"s{i}"), *fills))
                return out

            P = rand_slots("p", rng.randrange(4))
            G = rand_slots("g", rng.randrange(1, 4))
            mapping = match_slots(P, G)
            expected_pairs, expected_unmatched = set(), set()
            for p in P:
                scored = [
                    (similarity_exact(p, g), len(p.folded_fills() & g.folded_fills()), g.key)
                    for g in G
                ]
                best = max((s, o) for s, o, _ in scored)
                best_key = min(k for s, o, k in scored if (s, o) == best)
                if best[0] >= 0.5:
                    expected_pairs.add((p.key, best_key))
                else:
                    expected_unmatched.add(p.key)
            assert set(mapping.pairs) == expected_pairs
            assert mapping.unmatched_predicted == frozenset(expected_unmatched)

    def test_permutation_invariant(self):
        rng = random.Random(5)
        P = [vs(key("p", f"s{i}"), ("d1", 2 * (i % 3), "v")) for i in range(5)]
        G = [vs(key("g", f"s{i}"), ("d1", 2 * (i % 3), "v")) for i in range(4)]
        base = match_slots(P, G)
        for _ in range(10):
            rng.shuffle(P)
            rng.shuffle(G)
            assert match_slots(P, G) == base


class TestPrf:
    def test_redundant_predictions_cost_precision(self):
        # three predicted slots all map to the same gold slot
        g = vs(GA, ("d1", 0, "x"), ("d1", 2, "y"), ("d2", 0, "z"))
        g2 = vs(GB, ("d9", 0, "unseen"))
        P = [
            vs(PA, ("d1", 0, "x")),
            vs(PB, ("d1", 2, "y")),
            vs(PC, ("d2", 0, "z")),
        ]
        mapping = match_slots(P, [g, g2])
        s = slot_prf(mapping, P, [g, g2])
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(1 / 2)
        assert s.f1 == pytest.approx(2 * (1 / 3) * (1 / 2) / (1 / 3 + 1 / 2))

    def test_perfect_match(self):
        g = vs(GA, ("d1", 0, "x"))
        p = vs(PA, ("d1", 0, "x"))
        mapping = match_slots([p], [g])
        assert slot_prf(mapping, [p], [g]) == (1.0, 1.0, 1.0, False)
        assert value_prf(mapping) == (1.0, 1.0, 1.0, False)

    def test_value_prf_sums_over_matched_pairs(self):
        # pair 1: overlap 2 of |p|=2, |g|=2; pair 2: overlap 1 of |p|=2, |g|=3
        g1 = vs(GA, ("d1", 0, "x"), ("d1", 2, "y"))
        p1 = vs(PA, ("d1", 0, "x"), ("d1", 2, "y"))
        g2 = vs(GB, ("d2", 0, "q"), ("d2", 2, "r"), ("d2", 4, "s"))
        p2 = vs(PB, ("d2", 0, "q"), ("d2", 2, "wrong"))
        mapping = match_slots([p1, p2], [g1, g2])
        assert set(mapping.pairs) == {(PA, GA), (PB, GB)}
        v = value_prf(mapping)
        assert v.precision == pytest.approx(3 / 4)
        assert v.recall == pytest.approx(3 / 5)

    def test_unmatched_fills_excluded_from_value_metrics(self):
        g = vs(GA, ("d1", 0, "x"))
        p = vs(PA, ("d1", 0, "x"))
        stray = vs(PB, ("d9", 0, "junk"))  # below threshold, unmatched
        mapping = match_slots([p, stray], [g])
        assert value_prf(mapping) == (1.0, 1.0, 1.0, False)

    def test_degenerate_cases_flagged(self):
        g = vs(GA, ("d", 0, "v"))
        empty_mapping = match_slots([], [g])
        assert slot_prf(empty_mapping, [], [g]).degenerate
        assert value_prf(empty_mapping).degenerate
        with pytest.raises(InvalidGold):
            slot_prf(empty_mapping, [], [])


class TestCollection:
    def test_collect_groups_by_slot(self):
        k1, k2 = key("d", "a"), key("d", "b")
        log = [
            StateLogEntry("d1", 0, DialogueState.from_pairs([(k1, "x")])),
            StateLogEntry("d1", 2, DialogueState.from_pairs([(k1, "x"), (k2, "y")])),
        ]
        slots = {s.key: s for s in collect_valued_slots(log)}
        assert slots[k1].fills == frozenset([("d1", 0, "x"), ("d1", 2, "x")])
        assert slots[k2].fills == frozenset([("d1", 2, "y")])

    def _gold_dialogue(self):
        k1, k2 = key("d", "a"), key("d", "b")
        states = [
            DialogueState.from_pairs([(k1, "x")]),
            DialogueState.from_pairs([(k1, "x"), (k2, "y")]),
            DialogueState.from_pairs([(k1, "CHANGED"), (k2, "y")]),
        ]
        return make_dialogue("d1", 3, gold_states=states), k1, k2

    def test_gold_state_mode_repeats_carryover(self):
        d, k1, k2 = self._gold_dialogue()
        slots = {s.key: s for s in gold_valued_slots([d], StateMode.STATE)}
        assert slots[k1].fills == frozenset(
            [("d1", 0, "x"), ("d1", 2, "x"), ("d1", 4, "CHANGED")]
        )
        assert slots[k2].fills == frozenset([("d1", 2, "y"), ("d1", 4, "y")])

    def test_gold_update_mode_keeps_only_deltas(self):
        d, k1, k2 = self._gold_dialogue()
        slots = {s.key: s for s in gold_valued_slots([d], StateMode.UPDATE)}
        assert slots[k1].fills == frozenset([("d1", 0, "x"), ("d1", 4, "CHANGED")])
        assert slots[k2].fills == frozenset([("d1", 2, "y")])

    def test_gold_final_mode_last_turn_only(self):
        d, k1, k2 = self._gold_dialogue()
        slots = {s.key: s for s in gold_valued_slots([d], StateMode.FINAL)}
        assert slots[k1].fills == frozenset([("d1", 4, "CHANGED")])
        assert slots[k2].fills == frozenset([("d1", 4, "y")])


class TestEvaluateRun:
    def _corpus(self):
        k = key("d", "a")
        gold = DialogueState.from_pairs([(k, "x")])
        d1 = make_dialogue("d1", 1, scenario_id="s1", gold_states=[gold])
        d2 = make_dialogue("d2", 1, scenario_id="s2", gold_states=[gold])
        schema = SlotSchema((SlotDef(k),))
        return CorpusFile(dialogues=(d1, d2), gold_schema=schema), k

    def test_macro_mean_across_scenarios(self):
        corpus, k = self._corpus()
        # s1 perfect, s2 predicted nothing (degenerate zeros): mean is 0.5
        log = [StateLogEntry("d1", 0, DialogueState.from_pairs([(k, "x")]))]
        report = evaluate_run(log, corpus, StateMode.STATE)
        assert report.per_scenario["s1"] == (1.0,) * 6
        assert report.per_scenario["s2"] == (0.0,) * 6
        assert report.numbers() == (0.5,) * 6

    def test_unknown_dialogue_rejected(self):
        corpus, k = self._corpus()
        with pytest.raises(UnknownScenario):
            evaluate_run([StateLogEntry("ghost", 0, DialogueState())], corpus, StateMode.STATE)

    def test_missing_gold_schema_rejected(self):
        corpus, k = self._corpus()
        bare = CorpusFile(dialogues=corpus.dialogues)
        with pytest.raises(InvalidGold):
            evaluate_run([], bare, StateMode.STATE)

    def test_render_table_contains_mean_row(self):
        corpus, k = self._corpus()
        log = [StateLogEntry("d1", 0, DialogueState.from_pairs([(k, "x")]))]
        table = evaluate_run(log, corpus, StateMode.STATE).render_table()
        assert "MEAN" in table and "s1" in table and "s2" in table


class TestHumanAgreement:
    def _auto_mapping(self, n_agree, n_total):
        # auto maps p_i -> g_i for all i; human agrees on the first n_agree
        pairs = tuple((key("p", f"s{i}"), key("g", f"s{i}")) for i in range(n_total))
        auto = SlotMapping(pairs)
        human_pairs = tuple(
            (key("p", f"s{i}"), key("g", f"s{i}" if i < n_agree else "other"))
            for i in range(n_total)
        )
        return auto, SlotMapping(human_pairs)

    def test_agreement_five_of_seven(self):
        auto, human = self._auto_mapping(5, 7)
        assert mapping_agreement(auto, human) == pytest.approx(5 / 7)

    def test_null_decisions_compared(self):
        p = key("p", "s0")
        auto = SlotMapping((), frozenset([p]))
        human_match = SlotMapping(((p, GA),))
        human_null = SlotMapping((), frozenset([p]))
        assert mapping_agreement(auto, human_null) == 1.0
        assert mapping_agreement(auto, human_match) == 0.0

    def test_incomplete_human_mapping_rejected(self):
        auto = SlotMapping(((PA, GA),))
        with pytest.raises(IncompleteMapping):
            mapping_agreement(auto, SlotMapping())

    def test_empty_auto_mapping_is_full_agreement(self):
        assert mapping_agreement(SlotMapping(), SlotMapping()) == 1.0

    def test_load_human_mapping(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(
            json.dumps(
                {
                    "decisions": [
                        {"predicted": {"domain": "P", "name": "A"},
                         "gold": {"domain": "g", "name": "a"}},
                        {"predicted": {"domain": "p", "name": "b"}, "gold": None},
                    ]
                }
            )
        )
        mapping = load_human_mapping(path)
        assert mapping.pairs == ((PA, GA),)
        assert mapping.unmatched_predicted == frozenset([PB])
