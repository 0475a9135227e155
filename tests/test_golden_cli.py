"""Byte-for-byte gate on CLI stdout and exit codes against tests/data/golden_cli.json.

The committed file was written by ``tests/data/make_golden_cli.py``; this
test reruns every invocation in process and compares stdout as a string.
"""

import importlib.util
import json
from pathlib import Path

_DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden_cli", _DATA / "make_golden_cli.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_transcript_matches_golden():
    committed = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(committed) == sorted(" ".join(argv) for argv in golden.INVOCATIONS)
    assert golden.differences(committed, golden.build()) == []
