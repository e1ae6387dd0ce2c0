import gc
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from slotweaver import backend, cli, seqio
from slotweaver.cli import main
from slotweaver.seqio import canonical_json

from conftest import counting_server

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# A slot value of each JSON type but string, and the type its error names.
NON_STRING_VALUES = [(None, "null"), ([1], "list"), ({"a": "b"}, "dict"), (3, "int"),
                     (2.5, "float"), (True, "bool")]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(f"backend:\n  kind: scripted\n  script: {DATA / 'script.jsonl'}\n")
    return str(path)


def fence(text):
    return f"```\n{text}\n```"


def write_substring_script(path, entries):
    path.write_text(
        "\n".join(
            json.dumps({"match": {"substring": s}, "response": r}, ensure_ascii=False)
            for s, r in entries
        )
        + "\n"
    )


class TestInduce:
    def test_two_pass_matches_golden_bytes(self, runner, config_path, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out), "--mode", "state", "--two-pass"],
        )
        assert result.exit_code == 0, result.output
        for name in ("schema.json", "states.jsonl", "report.json"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_repeated_runs_byte_identical(self, runner, config_path, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(
                main,
                ["induce", "--config", config_path, "--corpus", str(DATA / "corpus.json"),
                 "--out-dir", str(out), "--two-pass"],
            )
            assert result.exit_code == 0
            outputs.append([(out / n).read_bytes()
                            for n in ("schema.json", "states.jsonl", "report.json")])
        assert outputs[0] == outputs[1]

    def test_shuffle_seed_without_a_seed_is_usage_error(self, runner, config_path, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out), "--shuffle-seed"],
        )
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output and "seed in the config" in result.output
        assert not out.exists()

    def test_shuffle_seed_takes_the_config_seed(self, runner, config_path, tmp_path):
        seeded = tmp_path / "seeded.yaml"
        seeded.write_text(Path(config_path).read_text() + "seed: 3\n")
        reports = []
        for config, flags in ((str(seeded), []), (config_path, ["--seed", "3"])):
            out = tmp_path / f"run{len(reports)}"
            result = runner.invoke(
                main,
                ["induce", "--config", config, "--corpus", str(DATA / "corpus.json"),
                 "--out-dir", str(out), "--shuffle-seed", *flags],
            )
            assert result.exit_code == 0, result.output
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["seed"] == 3

    def test_report_carries_run_settings(self, runner, config_path, tmp_path):
        out = tmp_path / "run"
        runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out), "--refiner", "slot-conf", "--window", "5", "--tau", "2"],
        )
        report = json.loads((out / "report.json").read_text())
        assert report["two_pass"] is False
        assert report["mode"] == "state"
        assert report["refiner"] == {
            "name": "slot-conf", "params": {"window_w": 5, "threshold_tau": 2},
        }

    def test_missing_script_is_config_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("backend:\n  kind: scripted\n")
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("script", ["5", "[a.jsonl]"])
    def test_script_that_is_not_a_path_is_config_error(self, runner, tmp_path, script):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {script}\n")
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "backend.script" in result.output

    def test_unknown_backend_kind_is_config_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("backend:\n  kind: quantum\n")
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("backend_yaml, message", [
        ("kind: http\n  api_key: k", "backend.endpoint"),
        ("kind: http\n  endpoint: {url}\n  api_key: k\n  max_retries: -1", "max_retries"),
        ("kind: http\n  endpoint: {url}\n  api_key: k\n  model: [1]",
         "backend: model must be a non-empty string, got [1]"),
        ("kind: http\n  endpoint: {url}\n  api_key: 5",
         "backend: api_key must be a string or null, got int"),
        ("kind: http\n  endpoint: localhost:9\n  api_key: k",
         "backend: endpoint must be an http or https URL with a host, got 'localhost:9'"),
    ])
    def test_bad_http_backend_is_config_error(self, runner, tmp_path, backend_yaml, message):
        cfg = tmp_path / "bad.yaml"
        with counting_server(str.upper) as server:
            cfg.write_text(f"backend:\n  {backend_yaml.format(url=server.url)}\n")
            result = runner.invoke(
                main,
                ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
                 "--out-dir", str(tmp_path / "out")],
            )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert server.connections == server.requests == 0

    @pytest.mark.parametrize("lines, message", [
        (['{"match": {"index": 0}, "response": "a"}', '{"match": {"substring": "x"}, "response": "b"}'],
         "bad.jsonl:2: script file mixes substring and index matchers"),
        (['{"match": {"index": 0}, "response": "a"}', "not json"], "bad.jsonl:2: invalid JSON"),
        (['{"match": {"index": 0}}'], "bad.jsonl:1: not of the form"),
        (None, "No such file or directory"),
    ])
    def test_bad_script_file_is_config_error(self, runner, tmp_path, lines, message):
        script = tmp_path / "bad.jsonl"
        if lines is not None:
            script.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {script}\n")
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "bad.jsonl" in result.output

    @pytest.mark.parametrize("bad", ["script", "config"])
    def test_non_utf8_script_or_config_is_config_error(self, runner, tmp_path, bad):
        script, cfg = tmp_path / "script.jsonl", tmp_path / "config.yaml"
        script.write_bytes((DATA / "script.jsonl").read_bytes())
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {script}\n")
        broken = script if bad == "script" else cfg
        broken.write_bytes(b"\xff\xfe" + broken.read_bytes())
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{broken}: not UTF-8 text" in result.output

    @pytest.mark.parametrize("flag", ["--window", "--tau", "--cap"])
    def test_zero_count_flag_is_usage_error(self, runner, config_path, tmp_path, flag):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out), "--refiner", "slot-conf", flag, "0"],
        )
        assert result.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("setting, value", [
        *(pytest.param(s, "0", id=s) for s in ("window", "tau", "cap")),
        *(pytest.param(s, v, id=f"{s}-{kind}") for s in ("window", "tau", "cap")
          for kind, v in (("string", '"10"'), ("float", "2.5"), ("bool", "true"))),
    ])
    def test_zero_filter_setting_in_config_is_config_error(self, runner, tmp_path, setting, value):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {DATA / 'script.jsonl'}\n"
                       f"induction:\n  {setting}: {value}\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out), "--refiner", "slot-conf"],
        )
        assert result.exit_code == 2, result.output
        assert "must all be >= 1" in result.output
        assert not out.exists()

    def _induce_with_script(self, runner, tmp_path, script_lines, *flags):
        script = tmp_path / "script.jsonl"
        script.write_text("".join(line + "\n" for line in script_lines))
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {script}\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out), *flags],
        )
        return result, out

    @pytest.mark.parametrize("flags", [(), ("--two-pass",)])
    def test_every_call_failed_is_pipeline_error(self, runner, tmp_path, flags):
        # an empty script answers no call: each one raises ScriptExhausted
        result, out = self._induce_with_script(runner, tmp_path, [], *flags)
        assert result.exit_code == 1, result.output
        assert "error: every backend call failed" in result.output
        report = json.loads((out / "report.json").read_text())
        assert report["turns_processed"] == 40
        assert len(report["errors"]) == 40
        assert (out / "schema.json").exists()
        assert len((out / "states.jsonl").read_text().splitlines()) == 40

    def test_failed_refiner_calls_do_not_hide_all_failed(self, runner, tmp_path):
        # every turn call and every revision call fails; the 20 revision
        # errors are listed too but do not count as turns
        result, out = self._induce_with_script(runner, tmp_path, [], "--refiner", "revision")
        assert result.exit_code == 1, result.output
        assert "error: every backend call failed" in result.output
        report = json.loads((out / "report.json").read_text())
        assert report["turns_processed"] == 40
        assert len(report["errors"]) == 60
        assert sum(":refine: " in e for e in report["errors"]) == 20

    def test_some_calls_failed_exits_ok(self, runner, tmp_path):
        lines = (DATA / "script.jsonl").read_text().splitlines()[:10]
        result, out = self._induce_with_script(runner, tmp_path, lines)
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert len(report["errors"]) == 30

    @pytest.mark.parametrize("text, message", [
        ("backend: [\n", "invalid YAML"),
        ("- a\n", "top level must be a mapping, got list"),
        ("backend: 5\n", "backend must be a mapping, got int"),
        ("induction: [1]\n", "induction must be a mapping, got list"),
    ])
    def test_malformed_config_file_is_config_error(self, runner, tmp_path, text, message):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{cfg}: {message}" in result.output

    @pytest.mark.parametrize("section, keys", [
        (None, {"sed": 0}),
        ("backend", {"endpont": 0}),
        ("backend", {"requests_per_minute": 0}),
        ("induction", {"windw": 0, "refinr": 0}),
        ("induction", {"temperature": 0.5}),
        ("induction", {"context_budget": 100}),
        ("simulation", {"prompt_pack": 0}),
        ("simulation", {"temperature": 1.0}),
    ])
    def test_unknown_config_key_is_config_error(self, runner, tmp_path, section, keys):
        config = {"backend": {"kind": "scripted", "script": str(DATA / "script.jsonl")}}
        (config if section is None else config.setdefault(section, {})).update(keys)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(config, sort_keys=False))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        named = ", ".join(key if section is None else f"{section}.{key}" for key in keys)
        assert f"{cfg}: unknown config key {named}" in result.output
        assert not out.exists()

    def test_non_utf8_corpus_is_config_error(self, runner, config_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(bad),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{bad}: not UTF-8 text" in result.output

    def test_malformed_corpus_is_config_error(self, runner, config_path, tmp_path):
        bad = tmp_path / "corpus.json"
        bad.write_text('{"dialogues": []}')  # missing format_version
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(bad),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["gold_schema"]["domains"][0]["slots"][0].update(description=5),
         "schema domain 'garden layouts' slot 0: 'description' must be a string or null, got int"),
        (lambda c: c["dialogues"][1]["turns"].__setitem__(2, [1]),
         "dialogue 'd01' turn 2: must be an object, got list"),
        (lambda c: c.update(format_version="x"),
         "corpus file: 'format_version' must be an integer, got str"),
        (lambda c: c["dialogues"][0]["turns"][1].update(text=5),
         "dialogue 'd00' turn 1: 'text' must be a string, got int"),
        (lambda c: c["dialogues"][0].update(id=["x"]),
         "dialogues[0]: 'id' must be a string, got list"),
        # induce keeps no gold state, but it refuses a corpus as it would with them
        (lambda c: c["dialogues"][0]["turns"][2]["state"].update(taxi={"to": "north"}),
         "dialogue d00 turn 2: gold state uses slots absent from gold schema: ['taxi/to']"),
        (lambda c: c["dialogues"][3].update(id="d01"),
         "dialogues[3]: id 'd01' repeats that of dialogues[1]"),
        (lambda c: c["dialogues"][0]["turns"][1].update(speaker="user"),
         "dialogue d00: turn 1 speaker 'user', expected 'agent' "
         "(turns alternate starting with user)"),
        (lambda c: c["dialogues"][0]["turns"][2]["state"].update(
            {"Garden Layouts": {"Style": "formal"}}),
         "dialogue 'd00' turn 2: slot garden layouts/style valued twice"),
    ], ids=["slot-description", "turn-list", "format-version", "turn-text", "dialogue-id",
            "stray-gold-slot", "repeated-id", "out-of-turn", "slot-valued-twice"])
    def test_corpus_field_of_the_wrong_type_is_config_error(
        self, runner, config_path, tmp_path, edit, message
    ):
        corpus = json.loads((DATA / "corpus.json").read_text())
        edit(corpus)
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps(corpus))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(bad), "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{bad}: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("value, got", NON_STRING_VALUES)
    def test_gold_slot_value_that_is_not_a_string_is_config_error(
        self, runner, config_path, tmp_path, value, got
    ):
        corpus = json.loads((DATA / "corpus.json").read_text())
        corpus["dialogues"][0]["turns"][2]["state"]["plant selections"]["color"] = value
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps(corpus))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(bad), "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert (f"{bad}: dialogue 'd00' turn 2: state domain 'plant selections' slot 'color' "
                f"must be a string, got {got}") in result.output
        assert not out.exists()


class TestEvaluate:
    def test_prints_table_and_writes_report(self, runner, tmp_path):
        out = tmp_path / "metrics.json"
        result = runner.invoke(
            main,
            ["evaluate", "--predictions", str(GOLDEN / "states.jsonl"),
             "--gold", str(DATA / "corpus.json"), "--mode", "state", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "MEAN" in result.output
        assert "garden-care" in result.output and "trip-planning" in result.output
        report = json.loads(out.read_text())
        assert set(report) == {"slot", "value", "per_scenario", "replicate_mean"}
        # corpus values are mostly echoed back: high but imperfect value recall
        assert 0.5 < report["value"]["recall"] <= 1.0

    @pytest.mark.parametrize("mode", ["update", "state", "final"])
    def test_metrics_bytes_are_pinned_in_every_mode(self, runner, tmp_path, mode):
        # tests/data/metrics/<mode>.json holds the bytes evaluate wrote
        # when each slot's fills came from per-turn state objects
        states = GOLDEN / "states.jsonl"
        if mode == "final":  # a final-mode log holds each dialogue's last user turn only
            corpus = json.loads((DATA / "corpus.json").read_text())
            last = {d["id"]: max(i for i, t in enumerate(d["turns"]) if t["speaker"] == "user")
                    for d in corpus["dialogues"]}
            lines = [line for line in states.read_text().splitlines()
                     if json.loads(line)["turn"] == last[json.loads(line)["dialogue_id"]]]
            states = tmp_path / "final.jsonl"
            states.write_text("\n".join(lines) + "\n")
        out = tmp_path / "metrics.json"
        result = runner.invoke(main, ["evaluate", "--predictions", str(states),
                                      "--gold", str(DATA / "corpus.json"), "--mode", mode,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (DATA / "metrics" / f"{mode}.json").read_bytes()

    def test_report_json_predictions_is_format_error(self, runner):
        path = GOLDEN / "report.json"
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(path), "--gold", str(DATA / "corpus.json")]
        )
        assert result.exit_code == 2, result.output
        assert f"{path}:1: invalid JSON" in result.output

    def _tiny_fixture(self, tmp_path):
        corpus = {
            "format_version": 1,
            "gold_schema": {"domains": [
                {"name": "garden layouts",
                 "slots": [{"name": "style", "description": "layout style"}]},
            ]},
            "dialogues": [{
                "id": "d1", "scenario_id": "s1",
                "turns": [
                    {"speaker": "user", "text": "hi",
                     "state": {"garden layouts": {"style": "desert"}}},
                    {"speaker": "agent", "text": "ok", "state": None},
                ],
            }],
        }
        gold = tmp_path / "gold.json"
        gold.write_text(canonical_json(corpus))
        states = tmp_path / "states.jsonl"
        states.write_text(json.dumps({
            "dialogue_id": "d1", "turn": 0,
            "state": {"garden layouts": {"style": "desert"}},
        }) + "\n")
        return gold, states

    def test_human_mapping_agreement(self, runner, tmp_path):
        gold, states = self._tiny_fixture(tmp_path)
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({"decisions": [{
            "predicted": {"domain": "garden layouts", "name": "style"},
            "gold": {"domain": "garden layouts", "name": "style"},
        }]}))
        result = runner.invoke(
            main,
            ["evaluate", "--predictions", str(states), "--gold", str(gold),
             "--human-mapping", str(mapping)],
        )
        assert result.exit_code == 0, result.output
        assert "mapping agreement with human decisions: 1.000" in result.output

    def test_incomplete_human_mapping_is_pipeline_error(self, runner, tmp_path):
        gold, states = self._tiny_fixture(tmp_path)
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({"decisions": []}))
        result = runner.invoke(
            main,
            ["evaluate", "--predictions", str(states), "--gold", str(gold),
             "--human-mapping", str(mapping)],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("text, message", [
        ('{"x": 1}', "no 'decisions' list"),
        ("not json", "invalid JSON at line 1"),
        ('{"decisions": [{"predicted": {"domain": "garden layouts"}}]}',
         "decisions[0].predicted: needs a 'domain' and a 'name' string"),
        ('{"decisions": [{"predicted": {"domain": "garden layouts", "name": " "}}]}',
         "decisions[0].predicted: empty slot name: ' '"),
        ('{"decisions": [{"predicted": {"domain": "a", "name": "b"}, "gold": null}, 7]}',
         "decisions[1]: not an object"),
        ('{"decisions": [{"predicted": {"domain": "a", "name": "b"}, "gold": {"name": "c"}}]}',
         "decisions[0].gold: needs a 'domain' and a 'name' string"),
        (b"\xff\xfe{}", "not UTF-8 text"),
        ('{"decisions": [{"predicted": {"domain": "a", "name": "b"}, "gold": null}, '
         '{"predicted": {"domain": "A", "name": "b "}, "gold": {"domain": "a", "name": "c"}}]}',
         "decisions[1].predicted: a/b decided twice"),
        ('{"decisions": [{"predicted": {"domain": "garden layouts", "name": "style"}}]}',
         "decisions[0]: needs a 'gold' slot or null"),
    ], ids=["no-decisions", "not-json", "no-name", "blank-name", "entry-not-object",
            "gold-no-domain", "not-utf8", "decided-twice", "no-gold"])
    def test_malformed_human_mapping_is_config_error(self, runner, tmp_path, text, message):
        gold, states = self._tiny_fixture(tmp_path)
        mapping = tmp_path / "mapping.json"
        mapping.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = runner.invoke(
            main,
            ["evaluate", "--predictions", str(states), "--gold", str(gold),
             "--human-mapping", str(mapping)],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{mapping}: {message}" in result.output

    def test_unknown_dialogue_is_pipeline_error(self, runner, tmp_path):
        gold, states = self._tiny_fixture(tmp_path)
        states.write_text(json.dumps({
            "dialogue_id": "ghost", "turn": 0,
            "state": {"garden layouts": {"style": "desert"}},
        }) + "\n")
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(states), "--gold", str(gold)]
        )
        assert result.exit_code == 1
        assert result.stderr == "error: dialogue 'ghost' not present in gold corpus\n"

    @pytest.mark.parametrize("turn", [1, 99], ids=["agent-turn", "no-such-turn"])
    def test_entry_off_a_user_turn_is_pipeline_error(self, runner, tmp_path, turn):
        states = tmp_path / "states.jsonl"
        extra = json.dumps({"dialogue_id": "d00", "turn": turn,
                            "state": {"garden layouts": {"style": "desert"}}})
        states.write_text((GOLDEN / "states.jsonl").read_text() + extra + "\n")
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(states), "--gold", str(DATA / "corpus.json")]
        )
        assert result.exit_code == 1
        assert result.stderr == (f"error: dialogue 'd00' turn {turn} is not a user turn "
                                 "in gold corpus\n")

    def test_entry_at_a_turn_final_mode_skips_is_pipeline_error(self, runner):
        # a state-mode log holds every user turn; final mode tracks only the last
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(GOLDEN / "states.jsonl"),
                   "--gold", str(DATA / "corpus.json"), "--mode", "final"]
        )
        assert result.exit_code == 1
        assert result.stderr == "error: dialogue 'd00' turn 0 is not tracked in final mode\n"

    def test_missing_file_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["evaluate", "--predictions", "/nonexistent.jsonl",
             "--gold", str(DATA / "corpus.json")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad_line, message", [
        ('{"dialogue_id": "d00", "state": {}}', "missing 'turn'"),
        ("not json at all", "invalid JSON"),
        ("[1,2]", "must be an object, got list"),
        ('{"dialogue_id": ["d0000"], "turn": 0, "state": {}}',
         "'dialogue_id' must be a string, got list"),
        ('{"dialogue_id": "d00", "turn": [1], "state": {}}', "'turn' must be an integer, got list"),
        ('{"dialogue_id": "d00", "turn": true, "state": {}}', "'turn' must be an integer, got bool"),
        ('{"dialogue_id": "d00", "turn": 0, "state": {}, "dialogue_index": "0"}',
         "'dialogue_index' must be an integer or null, got str"),
        ('{"dialogue_id": "d00", "turn": 2, "state": {}}', "dialogue 'd00' turn 2 logged twice"),
    ])
    def test_malformed_state_log_line_names_file_and_line(
        self, runner, tmp_path, bad_line, message
    ):
        states = tmp_path / "states.jsonl"
        good = (GOLDEN / "states.jsonl").read_text().splitlines()[:2]
        states.write_text("\n".join(good + ["", bad_line]) + "\n")
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(states), "--gold", str(DATA / "corpus.json")]
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{states}:4: " in result.output  # the blank line 3 still counts
        assert message in result.output

    @pytest.mark.parametrize("value, got", NON_STRING_VALUES)
    def test_logged_slot_value_that_is_not_a_string_names_file_and_line(
        self, runner, tmp_path, value, got
    ):
        states = tmp_path / "states.jsonl"
        good = (GOLDEN / "states.jsonl").read_text().splitlines()[:2]
        bad = json.dumps({"dialogue_id": "d00", "turn": 0,
                          "state": {"garden layouts": {"style": value}}})
        states.write_text("\n".join(good + [bad]) + "\n")
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(states), "--gold", str(DATA / "corpus.json")]
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert (f"{states}:3: state domain 'garden layouts' slot 'style' must be a string, "
                f"got {got}") in result.output

    def test_gold_state_that_values_a_slot_twice_names_the_slot(self, runner, tmp_path):
        corpus = json.loads((DATA / "corpus.json").read_text())
        corpus["dialogues"][0]["turns"][0]["state"] = {
            "Garden Layouts": {"style": "desert"}, "garden_layouts": {"Style": "formal"}}
        gold = tmp_path / "gold.json"
        gold.write_text(canonical_json(corpus))
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(GOLDEN / "states.jsonl"), "--gold", str(gold)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: {gold}: dialogue 'd00' turn 0: "
                                 "slot garden layouts/style valued twice\n")

    def test_logged_state_that_values_a_slot_twice_names_the_slot(self, runner, tmp_path):
        states = tmp_path / "states.jsonl"
        good = (GOLDEN / "states.jsonl").read_text().splitlines()[:1]
        bad = json.dumps({"dialogue_id": "d00", "turn": 2, "state": {
            "Plant Selections": {"color": "white"}, "plant selections": {"Color": "red"}}})
        states.write_text("\n".join(good + [bad]) + "\n")
        result = runner.invoke(
            main, ["evaluate", "--predictions", str(states), "--gold", str(DATA / "corpus.json")]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {states}:2: slot plant selections/color valued twice\n"

    @pytest.mark.parametrize("flag", ["--predictions", "--gold"])
    def test_non_utf8_input_is_config_error(self, runner, tmp_path, flag):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe" + (GOLDEN / "states.jsonl").read_bytes())
        files = {"--predictions": str(GOLDEN / "states.jsonl"), "--gold": str(DATA / "corpus.json")}
        files[flag] = str(bad)
        result = runner.invoke(main, ["evaluate", *(x for kv in files.items() for x in kv)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{bad}: not UTF-8 text" in result.output


class TestMakeTrainData:
    def test_final_mode_one_pair_per_dialogue(self, runner, tmp_path):
        out = tmp_path / "pairs.jsonl"
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(DATA / "corpus.json"),
             "--mode", "final", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "wrote 20 pairs" in result.output
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 20
        assert all("prompt" in l and "target" in l for l in lines)

    def test_state_mode_one_pair_per_user_turn(self, runner, tmp_path):
        out = tmp_path / "pairs.jsonl"
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(DATA / "corpus.json"),
             "--mode", "state", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "wrote 40 pairs" in result.output

    def test_creates_the_output_directory(self, runner, tmp_path):
        out = tmp_path / "new" / "dir" / "pairs.jsonl"
        result = runner.invoke(
            main, ["make-train-data", "--corpus", str(DATA / "corpus.json"), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 40

    def test_revision_pairs(self, runner, tmp_path):
        out = tmp_path / "revision.jsonl"
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(DATA / "corpus.json"),
             "--noisy-log", str(GOLDEN / "states.jsonl"),
             "--seed", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "wrote 40 pairs" in result.output
        first = json.loads(out.read_text().splitlines()[0])
        assert "Revise the Key Information Types" in first["prompt"]
        assert first["target"].startswith("# Key Information Types")

    def test_revision_prompts_carry_logged_descriptions(self, runner, config_path, tmp_path):
        # a one-pass run discovers plant selections/sunlight with a description
        run = tmp_path / "run"
        result = runner.invoke(
            main,
            ["induce", "--config", config_path, "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(run)],
        )
        assert result.exit_code == 0, result.output
        assert "the plant's sun requirements" in (run / "states.jsonl").read_text()
        out = tmp_path / "revision.jsonl"
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(DATA / "corpus.json"),
             "--noisy-log", str(run / "states.jsonl"), "--seed", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        prompts = [json.loads(line)["prompt"] for line in out.read_text().splitlines()]
        assert any("* sunlight: the plant's sun requirements\n" in p for p in prompts)
        assert not any("* sunlight: \n" in p for p in prompts)

    @pytest.mark.parametrize("bad_line", [
        '{"dialogue_id": ["d0000"], "turn": 0, "state": {}}',
        '{"dialogue_id": "d00", "turn": [1], "state": {}}',
    ])
    def test_noisy_log_entry_of_the_wrong_type_is_config_error(self, runner, tmp_path, bad_line):
        noisy = tmp_path / "states.jsonl"
        noisy.write_text(bad_line + "\n")
        out = tmp_path / "revision.jsonl"
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(DATA / "corpus.json"),
             "--noisy-log", str(noisy), "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{noisy}:1: state-log entry: " in result.output
        assert not out.exists()

    def test_missing_gold_is_pipeline_error(self, runner, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"format_version": 1, "dialogues": [], "gold_schema": None}))
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(bare), "--out", str(tmp_path / "x.jsonl")],
        )
        assert result.exit_code == 1


SIM_SCENARIOS = (
    "1. A Gardener is getting help from a Florist in order to pick plants.\n"
    "2. A Builder is getting help from a Clerk in order to choose tools.\n"
)


def sim_script_entries(break_first=False):
    entries = []
    if break_first:
        entries.append(("Task: pick plants\nList the types", "garbled, no fence"))
    entries += [
        ("numbered list", SIM_SCENARIOS),
        ("Task: pick plants\nList the types", fence("color: The preferred bloom color")),
        ("Task: pick plants\nThe user preference", fence("plant: p\ncolor: c")),
        ("Task: choose tools\nList the types", fence("grip: The handle grip preference")),
        ("Task: choose tools\nThe user preference", fence("tool: t\ngrip: g")),
        ("Task: pick plants\nKnowledge item fields",
         fence("plant = Rose\ncolor = Pink\n\nplant = Fern\ncolor = Green")),
        ("Task: choose tools\nKnowledge item fields",
         fence("tool = Spade\ngrip = Soft\n\ntool = Axe\ngrip = Hard")),
        ("Task: pick plants\nPreference fields", fence("color = Pink")),
        ("Task: choose tools\nPreference fields", fence("grip = Soft")),
        ("similar to the goal", fence("plant = Tulip\ncolor = Red")),
        ("## Pick Plants", "# Key Information Values\n\n## Pick Plants\n* color: Pink\n"),
        ("## Choose Tools", "# Key Information Values\n\n## Choose Tools\n* grip: Soft\n"),
        ("seeking help", "Hi, I am looking for something."),
        ("providing help", "Here is an option."),
        ("Answer yes or no", "yes"),
    ]
    return entries


# A config line with a bad simulation setting, and the message it must give.
BAD_SIM_SETTINGS = [
    ("simulation: {scenarios: 0}", "simulation: scenarios must be an integer >= 1, got 0"),
    ("simulation: {max_turns: 0}", "simulation: max_turns must be an integer >= 1, got 0"),
    ("simulation: {dialogues_per_scenario: 0}",
     "simulation: dialogues_per_scenario must be an integer >= 1, got 0"),
    ("simulation: {knowledge_size: many}",
     "simulation: knowledge_size must be an integer >= 1, got 'many'"),
    ("simulation: {red_herrings: 0}",
     "simulation: red_herring_count must be an integer >= 1, got 0"),
    ("simulation: {p_clear: 1.5}", "simulation: p_clear must be a number in [0, 1], got 1.5"),
    ("loss_limit: abc", "loss_limit must be a number in [0, 1], got 'abc'"),
    ("seed: [1]", "seed must be an integer or null, got [1]"),
]


class TestSimulate:
    def _config(self, tmp_path, break_first=False):
        script = tmp_path / "sim_script.jsonl"
        write_substring_script(script, sim_script_entries(break_first))
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {script}\nseed: 7\n")
        return str(cfg)

    def test_writes_corpus_and_report(self, runner, tmp_path):
        out = tmp_path / "corpus.json"
        report = tmp_path / "sim_report.json"
        result = runner.invoke(
            main,
            ["simulate", "--config", self._config(tmp_path), "--out", str(out),
             "--report", str(report), "--scenarios", "2", "--dialogues-per-scenario", "1"],
        )
        assert result.exit_code == 0, result.output
        assert "simulated 2/2 dialogues (0 lost)" in result.output
        corpus = json.loads(out.read_text())
        assert len(corpus["dialogues"]) == 2
        assert corpus["gold_schema"] is not None
        rep = json.loads(report.read_text())
        assert rep["produced"] == 2 and rep["lost"] == 0

    def test_creates_the_output_directories(self, runner, tmp_path):
        out = tmp_path / "new" / "dir" / "corpus.json"
        report = tmp_path / "other" / "r.json"
        result = runner.invoke(
            main,
            ["simulate", "--config", self._config(tmp_path), "--out", str(out),
             "--report", str(report), "--scenarios", "2", "--dialogues-per-scenario", "1"],
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads(out.read_text())["dialogues"]) == 2
        assert json.loads(report.read_text())["produced"] == 2

    def test_loss_limit_reached_exits_nonzero(self, runner, tmp_path):
        out = tmp_path / "corpus.json"
        result = runner.invoke(
            main,
            ["simulate", "--config", self._config(tmp_path, break_first=True),
             "--out", str(out), "--scenarios", "2", "--dialogues-per-scenario", "1"],
        )
        # one of two dialogues lost: fraction 0.5 is not under the 0.5 limit
        assert result.exit_code == 1
        assert "(1 lost)" in result.output

    @pytest.mark.parametrize("break_first, lost, code", [(False, 0, 0), (True, 1, 1)])
    def test_loss_limit_zero_fails_on_any_loss_only(self, runner, tmp_path, break_first,
                                                    lost, code):
        cfg = Path(self._config(tmp_path, break_first))
        cfg.write_text(cfg.read_text() + "loss_limit: 0\n")
        result = runner.invoke(
            main,
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "corpus.json"),
             "--scenarios", "2", "--dialogues-per-scenario", "1"],
        )
        assert result.exit_code == code, result.output
        assert f"simulated {2 - lost}/2 dialogues ({lost} lost)" in result.output

    def test_scenario_shortfall_is_requested_and_lost(self, runner, tmp_path):
        # The scenario reply yields 2 of the 5 scenarios asked for: the other
        # 3 scenarios' 6 dialogues count against the loss limit.
        report = tmp_path / "sim_report.json"
        result = runner.invoke(
            main,
            ["simulate", "--config", self._config(tmp_path), "--out", str(tmp_path / "c.json"),
             "--report", str(report), "--scenarios", "5", "--dialogues-per-scenario", "2"],
        )
        assert result.exit_code == 1, result.output
        assert "simulated 4/10 dialogues (6 lost)" in result.output
        rep = json.loads(report.read_text())
        assert (rep["dialogues_requested"], rep["produced"], rep["lost"]) == (10, 4, 6)

    @pytest.mark.parametrize("flag", ["--scenarios", "--dialogues-per-scenario"])
    def test_zero_count_flag_is_usage_error(self, runner, tmp_path, flag):
        out = tmp_path / "corpus.json"
        result = runner.invoke(
            main, ["simulate", "--config", self._config(tmp_path), "--out", str(out), flag, "0"]
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_no_config_defaults_to_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--out", str(tmp_path / "c.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("setting, message", BAD_SIM_SETTINGS,
                             ids=[setting for setting, _ in BAD_SIM_SETTINGS])
    def test_bad_simulation_setting_is_config_error(self, runner, tmp_path, setting, message):
        script = tmp_path / "sim_script.jsonl"
        write_substring_script(script, sim_script_entries())
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {script}\n{setting}\n")
        out = tmp_path / "corpus.json"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.output
        assert not out.exists()


# Every flag that has a config key: the command, the flag, the key's section
# (None for the top level) and name, flags the row needs besides, a value
# that differs from the default, and a bad value.
FLAG_TWINS = [
    ("induce", "--mode", "induction", "mode", (), "update", "bogus"),
    ("induce", "--refiner", "induction", "refiner", (), "fifo", "bogus"),
    ("induce", "--window", "induction", "window", ("--refiner", "slot-conf"), 3, 0),
    ("induce", "--tau", "induction", "tau", ("--refiner", "slot-conf"), 2, 0),
    ("induce", "--cap", "induction", "cap", ("--refiner", "fifo"), 4, 0),
    ("induce", "--seed", None, "seed", ("--shuffle-seed",), 3, "abc"),
    ("simulate", "--scenarios", "simulation", "scenarios", ("--dialogues-per-scenario", "1"), 1, 0),
    ("simulate", "--dialogues-per-scenario", "simulation", "dialogues_per_scenario",
     ("--scenarios", "1"), 1, 0),
]


@pytest.mark.parametrize("command, flag, section, key, fixed, good, bad", FLAG_TWINS,
                         ids=[row[1] for row in FLAG_TWINS])
class TestFlagOverridesItsConfigKey:
    """A flag is its config key set from the command line: the same value
    either way writes the same bytes, and a bad value either way is a
    configuration error before any output is written."""

    def _run(self, runner, tmp_path, row, by_flag=None, by_key=None):
        """The result of one run of ``row``'s command, and the bytes of each
        file it wrote (None when it wrote nothing)."""
        command, flag, section, key, fixed = row
        out = tmp_path / f"run{len(list(tmp_path.glob('*.yaml')))}"
        if command == "induce":
            config = {"backend": {"kind": "scripted", "script": str(DATA / "script.jsonl")}}
            args = ["--corpus", str(DATA / "corpus.json"), "--out-dir", str(out)]
        else:
            script = tmp_path / "sim_script.jsonl"
            write_substring_script(script, sim_script_entries())
            config = {"backend": {"kind": "scripted", "script": str(script)}, "seed": 7}
            args = ["--out", str(out / "corpus.json"), "--report", str(out / "report.json")]
        if by_key is not None:
            (config if section is None else config.setdefault(section, {}))[key] = by_key
        if by_flag is not None:
            args += [flag, str(by_flag)]
        cfg = out.with_suffix(".yaml")
        cfg.write_text(yaml.safe_dump(config))
        result = runner.invoke(main, [command, "--config", str(cfg), *fixed, *args])
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
        return result, written

    def test_same_value_by_flag_or_key_writes_the_same_bytes(
        self, runner, tmp_path, command, flag, section, key, fixed, good, bad
    ):
        row = (command, flag, section, key, fixed)
        by_flag, flag_out = self._run(runner, tmp_path, row, by_flag=good)
        by_key, key_out = self._run(runner, tmp_path, row, by_key=good)
        assert by_flag.exit_code == 0, by_flag.output
        assert by_key.exit_code == 0, by_key.output
        assert flag_out == key_out
        assert flag_out != self._run(runner, tmp_path, row)[1]  # the value took effect

    @pytest.mark.parametrize("way", ["by_flag", "by_key"])
    def test_bad_value_by_flag_or_key_is_config_error(
        self, runner, tmp_path, command, flag, section, key, fixed, good, bad, way
    ):
        row = (command, flag, section, key, fixed)
        result, written = self._run(runner, tmp_path, row, **{way: bad})
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert written is None


@pytest.fixture(params=["enabled", "disabled", "frozen"])
def collector(request):
    """The collector as a caller leaves it before a command: running, paused,
    or running with objects of its own frozen."""
    if request.param == "disabled":
        gc.disable()
    elif request.param == "frozen":
        gc.freeze()
    try:
        yield request.param
    finally:
        gc.unfreeze()
        gc.enable()


class TestCommandsRestoreTheCollector:
    """``induce``, ``evaluate`` and ``make-train-data`` load their inputs
    with the cyclic collector paused and then freeze them; whichever way a
    command exits, the collector is left as the caller had it."""

    @staticmethod
    def _argv(command, code, tmp_path, config_path):
        corpus = str(DATA / "corpus.json")
        if code == 2:
            bad = tmp_path / "bad.json"
            bad.write_text('{"dialogues": []}')  # missing format_version
            corpus = str(bad)
        if command == "induce":
            cfg = config_path
            if code == 1:  # an empty script answers no call
                script = tmp_path / "empty.jsonl"
                script.write_text("")
                cfg = tmp_path / "empty.yaml"
                cfg.write_text(f"backend:\n  kind: scripted\n  script: {script}\n")
            return ["induce", "--config", str(cfg), "--corpus", corpus,
                    "--out-dir", str(tmp_path / "out")]
        if command == "evaluate":
            states = GOLDEN / "states.jsonl"
            if code == 1:
                states = tmp_path / "ghost.jsonl"
                states.write_text(json.dumps({"dialogue_id": "ghost", "turn": 0, "state": {}}))
            return ["evaluate", "--predictions", str(states), "--gold", corpus]
        if code == 1:  # a corpus without gold labels
            corpus = tmp_path / "bare.json"
            corpus.write_text(json.dumps({"format_version": 1, "dialogues": [], "gold_schema": None}))
        return ["make-train-data", "--corpus", str(corpus), "--out", str(tmp_path / "pairs.jsonl")]

    @pytest.mark.parametrize("code", [0, 1, 2])
    @pytest.mark.parametrize("command", ["induce", "evaluate", "make-train-data"])
    def test_collector_is_as_before(self, runner, config_path, tmp_path, collector, command, code):
        argv = self._argv(command, code, tmp_path, config_path)
        before = gc.isenabled(), gc.get_freeze_count()
        result = runner.invoke(main, argv)
        assert result.exit_code == code, result.output
        assert (gc.isenabled(), gc.get_freeze_count()) == before


def _golden_induce_argv(config_path, out):
    return ["induce", "--config", str(config_path), "--corpus", str(DATA / "corpus.json"),
            "--out-dir", str(out), "--two-pass"]


class TestInducePausesTheCollector:
    """``induce`` keeps the collector paused through both passes and its
    writes, and resumes it before it returns."""

    def test_paused_through_both_passes_and_the_writes(self, runner, config_path, tmp_path,
                                                       monkeypatch):
        seen = []
        generate, write = backend.ScriptedBackend.generate, seqio._write

        def watched_generate(self, request):
            seen.append(("call", gc.isenabled()))
            return generate(self, request)

        def watched_write(path, chunks):
            seen.append(("write", gc.isenabled()))
            write(path, chunks)

        monkeypatch.setattr(backend.ScriptedBackend, "generate", watched_generate)
        monkeypatch.setattr(seqio, "_write", watched_write)
        assert gc.isenabled()
        result = runner.invoke(main, _golden_induce_argv(config_path, tmp_path / "run"))
        assert result.exit_code == 0, result.output
        assert gc.isenabled()
        assert Counter(seen) == {("call", False): 80, ("write", False): 3}  # 40 turns, twice

    def test_two_pass_run_leaves_no_cyclic_garbage(self, config_path, tmp_path):
        """What makes the pause safe: a run whose backend calls all succeed
        makes no reference cycle, so a collection during it frees nothing."""
        gc.collect()
        gc.disable()
        try:
            try:
                main(_golden_induce_argv(config_path, tmp_path / "run"), standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert (tmp_path / "run" / "report.json").read_bytes() == (
            GOLDEN / "report.json").read_bytes()


# Runs each command given as a JSON list of argument lists in one fresh
# interpreter, then exits. The exit probe is registered before any command
# runs, so it runs after every hook a command registers (atexit is last in,
# first out); it reports whether the heap is frozen, how many times gc.freeze
# ran after the commands, and the digest of each file under out/.
EXIT_PROBE = """
import atexit, gc, hashlib, json, sys
from pathlib import Path

freeze, freezes, commands_done = gc.freeze, [], []

def counted_freeze():
    freezes.append(bool(commands_done))
    freeze()

def probe():
    outputs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(Path("out").glob("*"))}
    print(json.dumps({"frozen": gc.get_freeze_count() > 0, "exit_freezes": sum(freezes),
                      "outputs": outputs}))

gc.freeze = counted_freeze
atexit.register(probe)
from slotweaver.cli import main
for argv in json.loads(sys.argv[1]):
    try:
        main(argv, standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
commands_done.append(True)
"""


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestHeapFrozenAtExit:
    """A command freezes the heap at exit, once however many commands ran,
    so interpreter shutdown has no collection to run, and its outputs are
    complete by then; importing the CLI without running a command leaves
    the exit as it was."""

    @staticmethod
    def _exit_state(tmp_path, *commands):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", EXIT_PROBE, json.dumps([list(map(str, c)) for c in commands])],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_import_alone_leaves_the_exit_as_it_was(self, tmp_path):
        assert self._exit_state(tmp_path) == {"frozen": False, "exit_freezes": 0, "outputs": {}}

    def test_induce(self, config_path, tmp_path):
        state = self._exit_state(tmp_path, _golden_induce_argv(config_path, "out"))
        assert state == {"frozen": True, "exit_freezes": 1, "outputs": {
            name: _sha256(GOLDEN / name) for name in ("report.json", "schema.json", "states.jsonl")}}

    def test_evaluate(self, tmp_path):
        state = self._exit_state(tmp_path, [
            "evaluate", "--predictions", GOLDEN / "states.jsonl", "--gold", DATA / "corpus.json",
            "--out", "out/metrics.json"])
        assert state == {"frozen": True, "exit_freezes": 1,
                         "outputs": {"metrics.json": _sha256(DATA / "metrics" / "state.json")}}

    def test_make_train_data(self, runner, tmp_path):
        expected = tmp_path / "pairs.jsonl"
        argv = ["make-train-data", "--corpus", str(DATA / "corpus.json"), "--out"]
        assert runner.invoke(main, [*argv, str(expected)]).exit_code == 0
        state = self._exit_state(tmp_path, [*argv, "out/pairs.jsonl"])
        assert state == {"frozen": True, "exit_freezes": 1,
                         "outputs": {"pairs.jsonl": _sha256(expected)}}

    def test_repeated_commands_register_one_hook(self, config_path, tmp_path):
        pairs = ["make-train-data", "--corpus", DATA / "corpus.json", "--out", "out/pairs.jsonl"]
        state = self._exit_state(tmp_path, _golden_induce_argv(config_path, "out"), pairs,
                                 _golden_induce_argv(config_path, "out"))
        assert (state["frozen"], state["exit_freezes"], len(state["outputs"])) == (True, 1, 4)
