import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from slotweaver.cli import main
from slotweaver.seqio import canonical_json

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


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
        ("kind: http\n  endpoint: http://127.0.0.1:9\n  api_key: k\n  max_retries: -1",
         "max_retries"),
        ("kind: http\n  endpoint: http://127.0.0.1:9\n  api_key: k\n  requests_per_minute: -5",
         "backend: requests_per_minute must be a positive number or null, got -5"),
        ("kind: http\n  endpoint: localhost:9\n  api_key: k",
         "backend: endpoint must be an http or https URL with a host, got 'localhost:9'"),
    ])
    def test_bad_http_backend_is_config_error(self, runner, tmp_path, backend_yaml, message):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"backend:\n  {backend_yaml}\n")
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize("lines, message", [
        (['{"match": {"index": 0}, "response": "a"}', '{"match": {"substring": "x"}, "response": "b"}'],
         "bad.jsonl:2: script file mixes substring and index matchers"),
        (['{"match": {"index": 0}, "response": "a"}', "not json"], "bad.jsonl:2: not JSON"),
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

    @pytest.mark.parametrize("setting", ["window", "tau", "cap"])
    def test_zero_filter_setting_in_config_is_config_error(self, runner, tmp_path, setting):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {DATA / 'script.jsonl'}\n"
                       f"induction:\n  {setting}: 0\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out), "--refiner", "slot-conf"],
        )
        assert result.exit_code == 2, result.output
        assert "must all be >= 1" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("max_output: 0", "induction: max_output must be an integer >= 1, got 0"),
        ("temperature: -1", "induction: temperature must be a number >= 0, got -1"),
        ("hard_cap: abc", "induction: hard_cap must be an integer >= 1, got 'abc'"),
        ("context_budget: -5", "induction: context_budget must be an integer >= 1, got -5"),
    ])
    def test_bad_induction_setting_is_config_error(self, runner, tmp_path, setting, message):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"backend:\n  kind: scripted\n  script: {DATA / 'script.jsonl'}\n"
                       f"induction:\n  {setting}\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["induce", "--config", str(cfg), "--corpus", str(DATA / "corpus.json"),
             "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.output
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
        (None, ["sed"]),
        ("backend", ["endpont"]),
        ("induction", ["windw", "refinr"]),
        ("simulation", ["prompt_pack"]),
    ])
    def test_unknown_config_key_is_config_error(self, runner, tmp_path, section, keys):
        config = {"backend": {"kind": "scripted", "script": str(DATA / "script.jsonl")}}
        for key in keys:
            (config if section is None else config.setdefault(section, {}))[key] = 0
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
        ('{"decisions": [{"predicted": {"domain": "a", "name": "b"}}, 7]}',
         "decisions[1]: not an object"),
        ('{"decisions": [{"predicted": {"domain": "a", "name": "b"}, "gold": {"name": "c"}}]}',
         "decisions[0].gold: needs a 'domain' and a 'name' string"),
        (b"\xff\xfe{}", "not UTF-8 text"),
    ], ids=["no-decisions", "not-json", "no-name", "blank-name", "entry-not-object",
            "gold-no-domain", "not-utf8"])
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

    def test_revision_pairs(self, runner, tmp_path):
        out = tmp_path / "revision.jsonl"
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(DATA / "corpus.json"),
             "--revision", "--noisy-log", str(GOLDEN / "states.jsonl"),
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
            ["make-train-data", "--corpus", str(DATA / "corpus.json"), "--revision",
             "--noisy-log", str(run / "states.jsonl"), "--seed", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        prompts = [json.loads(line)["prompt"] for line in out.read_text().splitlines()]
        assert any("* sunlight: the plant's sun requirements\n" in p for p in prompts)
        assert not any("* sunlight: \n" in p for p in prompts)

    def test_revision_without_noisy_log_is_config_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["make-train-data", "--corpus", str(DATA / "corpus.json"),
             "--revision", "--out", str(tmp_path / "x.jsonl")],
        )
        assert result.exit_code == 2

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
    ("simulation: {temperature: -1}", "simulation: temperature must be a number >= 0, got -1"),
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
