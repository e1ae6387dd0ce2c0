"""Run the slotweaver CLI, counting the calls it makes to the scripted backend.

    python3 perfbench/cli_shim.py <counts.json> <slotweaver CLI arguments...>

Prompts sent over HTTP are counted by the stub server; prompts handed to the
in-process scripted backend are seen only here. The count adds one length
and one increment per call, so timed runs stay effectively untraced.
"""

import atexit
import json
import sys

from slotweaver import backend
from slotweaver.cli import main

counts = {"calls": 0, "prompt_chars": 0}
_generate = backend.ScriptedBackend.generate


def _counting_generate(self, request):
    counts["calls"] += 1
    counts["prompt_chars"] += len(request.prompt)
    return _generate(self, request)


def _write_counts(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh)


if __name__ == "__main__":
    backend.ScriptedBackend.generate = _counting_generate
    atexit.register(_write_counts, sys.argv[1])
    main(sys.argv[2:], prog_name="slotweaver")
