"""The CLI commands one benchmark iteration runs, and the processes around them.

An iteration is the paper's loop as a closed loop with one client:
``simulate``, then ``induce --two-pass --mode state --refiner slot-conf``,
then ``evaluate``, each started after the previous one ends.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent


def commands(inputs: Path, run_dir: Path, quarter: bool = False):
    """(name, argv) of each CLI command of one iteration, in order.

    The quarter-length iteration, used only for growth ratios, skips
    ``simulate``.
    """
    expected = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))
    q = "_q" if quarter else ""
    corpus = str(inputs / f"corpus{q}.json")
    out = []
    if not quarter:
        out.append(("simulate", [
            "simulate", "--config", str(inputs / "config_sim.yaml"),
            "--out", str(run_dir / "sim_corpus.json"),
            "--report", str(run_dir / "sim_report.json"),
            "--scenarios", str(expected["sim_scenarios"]),
            "--dialogues-per-scenario", str(expected["sim_dialogues_per_scenario"]),
            "--seed", str(expected["seed"]),
        ]))
    out.append(("induce", [
        "induce", "--config", str(inputs / f"config_induce{q}.yaml"), "--corpus", corpus,
        "--out-dir", str(run_dir / "induce"), "--mode", "state", "--refiner", "slot-conf",
        "--two-pass",
    ]))
    out.append(("evaluate", [
        "evaluate", "--predictions", str(run_dir / "induce" / "states.jsonl"),
        "--gold", corpus, "--mode", "state", "--out", str(run_dir / "metrics.json"),
    ]))
    return out


class CommandFailed(RuntimeError):
    pass


def run_in_process(cli_main, argv) -> None:
    """Run one CLI command in this process; raise unless it exits with 0."""
    try:
        cli_main(argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise CommandFailed(f"{argv[0]} exited with {exc.code}") from None


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    # Start from cached bytecode, as an installed package would, whatever
    # the caller's environment says; the first run in a checkout compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_process(argv, env, log_path: Path, timeout: float):
    """Run a process to completion; return (exit code, wall s, CPU s, peak RSS MB).

    The child is reaped with ``wait4`` so its own CPU time and peak RSS are
    read, not those of other children such as the stub server.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_cli(command_argv, root: Path, counts_path: Path, log_path: Path, timeout: float):
    """Run one CLI command in a fresh interpreter through ``cli_shim``."""
    argv = [sys.executable, str(HERE / "cli_shim.py"), str(counts_path)] + list(command_argv)
    return timed_process(argv, cli_env(root), log_path, timeout)


class StubClient:
    """Control calls to the stub server: reset counters, read them."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint

    def _call(self, method: str, path: str) -> dict:
        req = urllib.request.Request(self.endpoint + path, data=b"{}" if method == "POST" else None,
                                     method=method)
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")


class StubProcess:
    """The stub server as a child process; a context manager that stops it."""

    def __init__(self, table: Path, log_path: Path):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--table", str(table)],
            stdout=subprocess.PIPE, stderr=self._log,
        )
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"
        self.client = StubClient(self.endpoint)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
