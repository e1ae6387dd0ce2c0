"""Tests of the benchmark's own code: generator, stub server and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stub  # noqa: E402

ENDPOINT = "http://127.0.0.1:9"


def _build(tmp_path, name, workload="simulate-http", seed=4):
    out = tmp_path / name
    expected = gen.build_inputs(workload, seed, out)
    gen.write_configs(out, ENDPOINT, expected)
    return out


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_same_seed_same_bytes(tmp_path, workload):
    first = _files(_build(tmp_path, "a", workload))
    shutil.rmtree(tmp_path / "a")
    again = _files(_build(tmp_path, "a", workload))
    assert first.keys() == again.keys()
    for name in first:
        assert first[name] == again[name], name


def test_generator_seed_changes_inputs(tmp_path):
    a = _build(tmp_path, "a", seed=4)
    b = _build(tmp_path, "b", seed=5)
    assert (a / "corpus.json").read_bytes() != (b / "corpus.json").read_bytes()
    assert (a / "stub_table.json").read_bytes() != (b / "stub_table.json").read_bytes()


def test_generator_counts_match_corpus(tmp_path):
    out = _build(tmp_path, "a", workload="stream-cpu", seed=2)
    expected = json.loads((out / "expected.json").read_text())
    corpus = json.loads((out / "corpus.json").read_text())
    user_turns = sum(1 for d in corpus["dialogues"] for t in d["turns"] if t["speaker"] == "user")
    assert user_turns == expected["turns"]
    script = (out / "script.jsonl").read_text().splitlines()
    assert len(script) == 2 * expected["turns"]
    assert sum(gen.MALFORMED_REPLY in line for line in script) == 2 * expected["malformed"]
    gold = sum(len(d["slots"]) for d in corpus["gold_schema"]["domains"])
    assert gold == expected["gold_keys"] == 240


def _induce_prompt(ref, schema_lines=""):
    return (f"# Key Information Types\n{schema_lines}\n\n# Dialogue\n\nUser: ref:{ref} hello\n\n"
            f"{stub.INDUCE_MARKER}")


def _prompts(table):
    refs = sorted(table["induce"])
    prompts = [_induce_prompt(r) for r in refs] + [_induce_prompt(r, "## Other") for r in refs]
    task = table["sim"]["scenarios"][0]["tasks"][0]["name"]
    prompts.append(f"Scenario: s\nTask: {task}\nList the types of preferences or requirements the user")
    prompts.append(f"Task: {task}\nKnowledge item fields:\nx\nWrite 8 candidate knowledge items inside")
    return prompts


def _table(tmp_path, workload="induce-http"):
    out = tmp_path / "t"
    gen.build_inputs(workload, 7, out)
    return json.loads((out / "stub_table.json").read_text())


def test_stub_same_prompt_same_bytes(tmp_path):
    table = _table(tmp_path)
    for prompt in _prompts(table):
        for attempt in (1, 2, 3):
            assert stub.reply_for(table, prompt, attempt) == stub.reply_for(table, prompt, attempt)


def test_stub_replies_do_not_depend_on_call_order(tmp_path):
    table = _table(tmp_path)
    prompts = _prompts(table) * 2  # every prompt is retried once

    def serve(order):
        server = stub.Stub(table)
        replies = {}
        for prompt in order:
            replies.setdefault(prompt, []).append(server.answer(prompt)[:2])
        return replies, server.snapshot()

    base_replies, base_stats = serve(prompts)
    shuffled = list(prompts)
    random.Random(1).shuffle(shuffled)
    replies, stats = serve(shuffled)
    assert replies == base_replies
    assert stats == base_stats
    throttled = {p for p, r in base_replies.items() if r[0][0] == 429}
    assert throttled and all(r[1][0] == 200 for p, r in base_replies.items() if p in throttled)
    assert stats["throttled"] == len(throttled) == 2 * len(table["throttled"])


def test_stub_server_answers_without_delayed_ack_stall(tmp_path):
    out = tmp_path / "inputs"
    gen.build_inputs("stream-cpu", 1, out)
    with pipeline.StubProcess(out / "stub_table.json", tmp_path / "stub.log") as server:
        # a stall from Nagle plus delayed ACK costs tens of milliseconds a call
        assert spans.ping_ms(server.endpoint, n=20) < 15.0
        server.client.reset()
        stats = server.client.stats()
        assert stats["requests"] == 0 and stats["cpu_s"] >= 0


def test_rescaled_divides_only_the_cpu_part():
    # 1 s waiting plus 2 s of CPU on a host running at half the reference speed
    assert run.rescaled(3.0, 2.0, 2.0) == pytest.approx(2.0)
    assert run.rescaled(3.0, 2.0, 1.0) == 3.0
    assert run.rescaled(3.0, 0.0, 1.7) == 3.0


def _span(i, start, end, parent=None):
    return spans.Span(i, f"s{i}", start, end, parent, "r")


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),  # overlaps span 1: covered 1..6
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent: clipped to 9..10
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_self_times_of_nested_spans_sum_to_root():
    tree = [_span(0, 0.0, 8.0), _span(1, 1.0, 3.0, 0), _span(2, 3.0, 7.0, 0), _span(3, 4.0, 5.0, 2)]
    assert sum(spans.self_times(tree).values()) == pytest.approx(8.0)


def test_tracer_records_parent_links_and_restores_functions():
    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    original = Layer.inner
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    assert Layer.outer(3) == 7
    tracer.uninstall()
    assert Layer.inner is original
    outer, inner = tracer.spans
    assert (outer.name, inner.name, inner.parent) == ("outer", "inner", outer.id)
    assert spans.self_times(tracer.spans)[outer.id] == pytest.approx(outer.duration - inner.duration)


def test_spans_on_worker_threads_keep_their_parent():
    both_in_flight = threading.Barrier(2)

    class Layer:
        @staticmethod
        def command(n):
            with ThreadPoolExecutor(2) as pool:
                return list(pool.map(Layer.call, range(n)))

        @staticmethod
        def call(x):
            both_in_flight.wait(timeout=10)
            return x

    tracer = spans.Tracer()
    tracer.wrap(Layer, "command", "cli.command")
    tracer.wrap(Layer, "call", "call")
    assert Layer.command(2) == [0, 1]
    tracer.uninstall()
    root, *calls = tracer.spans
    assert len(calls) == 2
    assert all(c.parent == root.id and c.thread != root.thread for c in calls)
    selfs = spans.self_times(tracer.spans)
    # the two calls overlap, so self times summed over threads exceed the wall time ...
    assert sum(selfs.values()) > root.duration
    # ... while on each thread they stay within it
    assert spans.span_problems(tracer.spans, "") == []


def test_span_problems_flags_orphans_and_unnested_spans():
    orphan = [spans.Span(0, "cli.a", 0.0, 4.0, None, "r"), spans.Span(1, "x", 1.0, 2.0, None, "r")]
    problems = spans.span_problems(orphan, "r")
    # the orphan's time is counted twice, once as its own and once in the root's self time
    assert problems[0] == "span x has no parent" and "more than the traced wall time" in problems[1]
    # two sibling spans on one thread that overlap cannot both have run there
    unnested = [spans.Span(0, "cli.a", 0.0, 4.0, None, "r"),
                spans.Span(1, "x", 0.0, 3.0, 0, "r"), spans.Span(2, "y", 1.0, 4.0, 0, "r")]
    assert len(spans.span_problems(unnested, "r")) == 1


def test_benchmark_json_names_every_metric_the_harness_prints():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer_names = set(spans.layer_metrics([], "full", {})) | set(spans.growth([], "full", "quarter"))
    layer_names |= {"trace.overhead_s", "stub.zero_latency_call_ms"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {n: run.layer_unit(n) for n in layer_names}
    assert {w["name"] for w in bench["workloads"]} == set(gen.WORKLOADS)
