"""Byte-exact golden outputs for the cumsub command line.

Each case in ``tests/golden/cases.json`` runs ``cumsub.cli.main`` in
process and must reproduce the recorded exit code, the stdout bytes in
``tests/golden/<name>.out``, and the sha256 of every file it writes.
Arguments may name ``{tmp}``, a fresh directory per case; that path is
written as ``{tmp}`` in the recorded stdout.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py --record`` and review
the diff.  Run as a script without exactly that flag, it prints a usage
line and exits nonzero without touching a file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from cumsub import ObservationReport, Ruleset, canonical_trace
from cumsub.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)


def _run_case(case: dict, tmp: str) -> tuple[int, str, dict]:
    argv = [arg.replace("{tmp}", tmp) for arg in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    files = {}
    for name in sorted(os.listdir(tmp)):
        with open(os.path.join(tmp, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return code, out.getvalue().replace(tmp, "{tmp}"), files


def _stdout_path(case: dict) -> str:
    return os.path.join(GOLDEN, case["name"] + ".out")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_golden(case, tmp_path):
    code, out, files = _run_case(case, str(tmp_path))
    with open(_stdout_path(case), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert code == case["exit_code"]
    assert out == expected
    assert files == case["files"]


# No sweep at test sizes yields a witness, so the nested PlayTrace
# serialization is pinned here directly.
OBSERVATION_WITH_WITNESS = (
    '{"observation": "sacrificer-plays-last", "ruleset": [5, 7], "holds": false, '
    '"counterexample_x": 17, "witness": {"start_heap": 17, "start_score": 2, '
    '"moves": [{"mover": "positive", "action": 5, "score_after": 7}, '
    '{"mover": "negative", "action": 7, "score_after": 0}, '
    '{"mover": "positive", "action": 5, "score_after": 5}], "final_score": 5}}'
)


def test_observation_report_with_witness_json():
    rs = Ruleset((5, 7))
    report = ObservationReport(
        observation="sacrificer-plays-last",
        ruleset=rs,
        holds=False,
        counterexample_x=17,
        witness=canonical_trace(rs, 17, start_score=2),
    )
    assert json.dumps(report.as_dict()) == OBSERVATION_WITH_WITNESS


def _record() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            case["exit_code"], out, case["files"] = _run_case(case, tmp)
        with open(_stdout_path(case), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(CASES, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    _record()
