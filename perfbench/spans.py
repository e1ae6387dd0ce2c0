"""Traced run of the slotweaver CLI: spans around each layer, from outside.

``Tracer.install`` wraps public functions at the names their callers
resolve (``slotweaver.induct.render_prompt``, ``slotweaver.evalx.match_slots``,
the refiner and backend methods, ...) so the program itself is unchanged.
Each span records its name, start, end, parent, run id and thread, and
stays in memory until the run ends. A span opened on a worker thread keeps
its parent on the thread that drives the CLI. ``self_times`` subtracts from
each span the part of its interval that its children cover.

Run as a process, this drives the CLI in-process
(``main(..., standalone_mode=False)``) over one workload's inputs:

    python3 perfbench/spans.py --inputs <dir> --out <dir> --endpoint <url>

It runs the pipeline once untraced and once traced (their difference is the
tracing overhead), then once traced on the quarter-length stream for the
growth ratios, and writes ``spans.jsonl`` and ``layers.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import requests

import pipeline


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    thread: int = 0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of its interval covered by children."""
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _covered(clipped)
    return out


class _OpenSpan:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        tracer = self.tracer
        stack = tracer._stack()
        # A span opened on a worker thread with no span open there is a
        # child of the innermost span open on the tracer's home thread (the
        # one driving the CLI), so overlapped calls keep their ancestry.
        top = (stack or tracer._home_stack)[-1:]
        with tracer._lock:
            self.span = Span(len(tracer.spans), self.name, 0.0, 0.0,
                             top[0].id if top else None, tracer.run, threading.get_ident())
            tracer.spans.append(self.span)
        stack.append(self.span)
        self.span.start = tracer.clock()
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.end = self.tracer.clock()
        self.tracer._stack().pop()
        return False


class Tracer:
    """Records spans; one open-span stack per thread.

    The thread that creates the tracer is its home thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.run = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._home_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str) -> "_OpenSpan":
        """Context manager recording one span, child of the innermost open one."""
        return _OpenSpan(self, name)

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``observe(span, args, kwargs, result, error)`` adds attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with tracer.span(span_name) as span:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if observe:
                        observe(span, args, kwargs, None, exc)
                    raise
            if observe:
                observe(span, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:  # the attribute was inherited
                delattr(owner, attr)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        from slotweaver import backend, evalx, induct, refine, seqio, sim

        self.wrap(seqio, "load_corpus", "seqio.load_corpus")
        self.wrap(induct, "run_two_pass", "induct.run_two_pass")
        self.wrap(induct, "run_induction",
                  lambda a, kw: "induct.pass2" if kw.get("dst_only") else "induct.pass1")

        def prompt_chars(span, args, kwargs, result, error):
            if result is not None:
                span.attrs["chars"] = len(result)

        def parse_outcome(span, args, kwargs, result, error):
            if error is not None:
                span.attrs["failure"] = 1
            else:
                span.attrs["warnings"] = len(result.parse_warnings)

        def schema_growth(span, args, kwargs, result, error):
            if result is not None:
                span.attrs["size"] = len(result)
                span.attrs["discovered"] = len(result) - len(args[0])

        self.wrap(induct, "render_prompt", "seqio.render_prompt", prompt_chars)
        self.wrap(induct, "parse_state_block", "seqio.parse_state_block", parse_outcome)
        self.wrap(induct, "schema_update", "core.schema_update", schema_growth)

        def evicted(span, args, kwargs, result, error):
            if result is not None:
                span.attrs["evicted"] = max(0, len(args[1]) - len(result))

        # the only refiner the workloads run (--refiner slot-conf)
        self.wrap(refine.SlotConfidenceRefiner, "observe_state", "refine.observe_state")
        self.wrap(refine.SlotConfidenceRefiner, "end_dialogue", "refine.end_dialogue", evicted)

        def pairs(span, args, kwargs, result, error):
            span.attrs["pairs"] = len(args[0]) * len(args[1])

        self.wrap(evalx, "evaluate_run", "evalx.evaluate_run")
        for fn in ("collect_valued_slots", "gold_valued_slots", "slot_prf", "value_prf"):
            self.wrap(evalx, fn, f"evalx.{fn}")
        self.wrap(evalx, "match_slots", "evalx.match_slots", pairs)

        for fn in ("generate_scenarios", "simulate_corpus", "define_schemas",
                   "initialize_task", "simulate_dialogue"):
            self.wrap(sim, fn, f"sim.{fn}")

        def reply_chars(span, args, kwargs, result, error):
            if result is not None:
                span.attrs["reply_chars"] = len(result)

        for cls in (backend.ScriptedBackend, backend.HttpBackend):
            self.wrap(cls, "generate", "backend.generate", reply_chars)


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ancestors(span: Span, by_id: Dict[int, Span]):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def layer_metrics(spans: List[Span], run: str, stub_stats: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced run id."""
    mine = [s for s in spans if s.run == run]
    by_id = {s.id: s for s in spans}
    selfs = self_times(mine)
    named: Dict[str, List[Span]] = {}
    for s in mine:
        named.setdefault(s.name, []).append(s)

    def calls(name):
        return float(len(named.get(name, ())))

    def self_s(name):
        return sum(selfs[s.id] for s in named.get(name, ()))

    def total(name):
        return sum(s.duration for s in named.get(name, ()))

    def attr(name, key):
        return [s.attrs[key] for s in named.get(name, ()) if key in s.attrs]

    gen = named.get("backend.generate", [])
    call_ms = [s.duration * 1000 for s in gen]
    sim_parents = {"sim.initialize_task", "sim.simulate_dialogue"}
    sim_calls = sum(
        1 for s in gen if any(a.name in sim_parents for a in _ancestors(s, by_id))
    )
    m = {
        "core.schema_update.calls": calls("core.schema_update"),
        "core.schema_update.self_s": self_s("core.schema_update"),
        "core.schema_size.max": float(max(attr("core.schema_update", "size"), default=0)),
        "core.schema_writes": float(
            sum(attr("core.schema_update", "discovered")) + sum(attr("refine.end_dialogue", "evicted"))
        ),
        "seqio.render_prompt.calls": calls("seqio.render_prompt"),
        "seqio.render_prompt.self_s": self_s("seqio.render_prompt"),
        "seqio.prompt_chars.p50": float(_pct(attr("seqio.render_prompt", "chars"), 0.5)),
        "seqio.prompt_chars.max": float(max(attr("seqio.render_prompt", "chars"), default=0)),
        "seqio.parse_state_block.calls": calls("seqio.parse_state_block"),
        "seqio.parse_state_block.self_s": self_s("seqio.parse_state_block"),
        "seqio.parse_warnings": float(sum(attr("seqio.parse_state_block", "warnings"))),
        "seqio.parse_failures": float(sum(attr("seqio.parse_state_block", "failure"))),
        "seqio.load_corpus.self_s": self_s("seqio.load_corpus"),
        "backend.generate.calls": float(len(gen)),
        "backend.generate.busy_s": total("backend.generate"),
        "backend.call_ms.p50": _pct(call_ms, 0.5),
        "backend.call_ms.p99": _pct(call_ms, 0.99),
        "backend.retries": float(sum(s["throttled"] for s in stub_stats.values())),
        "backend.reply_chars": float(sum(attr("backend.generate", "reply_chars"))),
        "induct.pass1.s": total("induct.pass1"),
        "induct.pass2.s": total("induct.pass2"),
        "induct.run_induction.self_s": self_s("induct.pass1") + self_s("induct.pass2"),
        "refine.observe_state.calls": calls("refine.observe_state"),
        "refine.observe_state.self_s": self_s("refine.observe_state"),
        "refine.end_dialogue.calls": calls("refine.end_dialogue"),
        "refine.end_dialogue.self_s": self_s("refine.end_dialogue"),
        "refine.evictions": float(sum(attr("refine.end_dialogue", "evicted"))),
        "evalx.match_slots.pairs": float(sum(attr("evalx.match_slots", "pairs"))),
    }
    for fn in ("collect_valued_slots", "gold_valued_slots", "match_slots", "value_prf"):
        m[f"evalx.{fn}.self_s"] = self_s(f"evalx.{fn}")
    for fn in ("generate_scenarios", "define_schemas", "initialize_task", "simulate_dialogue"):
        m[f"sim.{fn}.calls"] = calls(f"sim.{fn}")
        m[f"sim.{fn}.self_s"] = self_s(f"sim.{fn}")
    dialogues = calls("sim.simulate_dialogue")
    m["sim.calls_per_dialogue"] = sim_calls / dialogues if dialogues else 0.0
    m["sim.retries"] = float(stub_stats.get("simulate", {}).get("malformed", 0))
    cli = [s for s in mine if s.name.startswith("cli.")]
    m["cli.other_s"] = sum(selfs[s.id] for s in cli)
    m["trace.wall_s"] = sum(s.duration for s in cli)
    m["trace.self_sum_s"] = max(_self_sums_by_thread(mine, selfs).values(), default=0.0)
    return m


def _self_sums_by_thread(spans: List[Span], selfs: Dict[int, float]) -> Dict[int, float]:
    sums: Dict[int, float] = {}
    for s in spans:
        sums[s.thread] = sums.get(s.thread, 0.0) + selfs[s.id]
    return sums


def span_problems(spans: List[Span], run: str) -> List[str]:
    """What is wrong with the span tree of one traced run id.

    Every span but the ``cli.*`` roots needs a parent. On each thread, self
    times sum to no more than the traced wall time (that of the roots):
    spans on one thread nest, and a parent's self time excludes the union
    of its children on every thread, so the bound holds when calls overlap
    on worker threads. A span that lost its parent, or spans on one thread
    that overlap without nesting, break it.
    """
    mine = [s for s in spans if s.run == run]
    problems = [f"span {s.name} has no parent" for s in mine
                if s.parent is None and not s.name.startswith("cli.")]
    wall = sum(s.duration for s in mine if s.parent is None and s.name.startswith("cli."))
    for thread, total in _self_sums_by_thread(mine, self_times(mine)).items():
        if total > wall + 1e-6:
            problems.append(f"self times on thread {thread} sum to {total} s, "
                            f"more than the traced wall time {wall} s")
    return problems


def growth(spans: List[Span], full: str, quarter: str) -> Dict[str, float]:
    """Ratio of time spent in each layer at full length over quarter length."""
    by_id = {s.id: s for s in spans}

    def spent(run, prefix):
        # outermost spans of the layer only, so nested ones are not counted twice
        return sum(
            s.duration for s in spans
            if s.run == run and s.name.startswith(prefix)
            and not any(a.name.startswith(prefix) for a in _ancestors(s, by_id))
        )

    out = {}
    for layer in ("induct", "refine", "evalx"):
        base = spent(quarter, layer + ".")
        out[f"{layer}.growth_4x"] = spent(full, layer + ".") / base if base else 0.0
    return out


def ping_ms(endpoint: str, n: int = 50) -> float:
    """Median round trip of the stub's zero-latency reply, as HttpBackend
    would see it (one keep-alive session, JSON body)."""
    session = requests.Session()
    payload = {"model": "perfbench-stub", "messages": [{"role": "user", "content": "ping"}]}
    times = []
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            session.post(f"{endpoint}/ping", json=payload, timeout=10).raise_for_status()
            times.append((time.perf_counter() - t0) * 1000)
    finally:
        session.close()
    return statistics.median(times)


def _write_spans(spans: List[Span], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "run": s.run, "thread": s.thread, "attrs": s.attrs,
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process run of one workload")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--endpoint", required=True)
    args = parser.parse_args(argv)
    inputs, out = Path(args.inputs), Path(args.out)
    stub = pipeline.StubClient(args.endpoint)

    from slotweaver.cli import main as cli_main

    def pipeline_pass(label, tracer=None, quarter=False):
        run_dir = out / label
        run_dir.mkdir(parents=True)
        stats = {}
        for name, argv_ in pipeline.commands(inputs, run_dir, quarter=quarter):
            stub.reset()
            with tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext():
                pipeline.run_in_process(cli_main, argv_)
            stats[name] = stub.stats()
        return stats

    t0 = time.perf_counter()
    pipeline_pass("untraced")
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        tracer.run = "full"
        t0 = time.perf_counter()
        full_stats = pipeline_pass("traced", tracer)
        traced = time.perf_counter() - t0
        tracer.run = "quarter"
        pipeline_pass("quarter", tracer, quarter=True)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer.spans, "full", full_stats)
    problems = span_problems(tracer.spans, "full") + span_problems(tracer.spans, "quarter")
    metrics.update(growth(tracer.spans, "full", "quarter"))
    metrics["trace.overhead_s"] = traced - untraced
    metrics["stub.zero_latency_call_ms"] = ping_ms(args.endpoint)
    _write_spans(tracer.spans, out / "spans.jsonl")
    (out / "layers.json").write_text(json.dumps(
        {"metrics": metrics, "problems": problems, "stub": full_stats}, indent=1, sort_keys=True
    ), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
