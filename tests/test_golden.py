"""Replay the recorded CLI corpus in ``tests/golden/corpus.json``.

Each record holds an argv, its exit code, its stdout and its stderr, with
warnings written as ``Category: message`` (no path or line number).  Text and
exit codes must match byte for byte.  Numbers must match as floats, within the
per-column budget below: numpy's SIMD loops round differently across code
paths and CPUs, and the steep-flank search's root moves with them within its
tolerance.  A record that is not byte-identical but within budget passes.

Re-record with ``python tests/golden/record.py``.  ``python
tests/golden/record.py --check`` replays the corpus without pytest and lists
each record that is within budget but not byte-identical, with what moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest

from plasmonq.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus.json"

ULP = 2.0 ** -52
_SEARCH_TOL = 1e-9  # the tol of the CLI's steep-flank search
# column -> (relative, absolute) budget; a column not named here is exact
BUDGETS = {
    # kernel outputs: a few ulp
    "reflectance": (4 * ULP, 4 * ULP),
    "R": (64 * ULP, 4 * ULP),
    "max_deviation": (0.0, 4 * ULP),
    # a central difference with h = 1e-6 turns one ulp of R into ~1e-10
    "sensitivity": (0.0, 1e-9),
    # the searched flank index, and the columns derived from it (|d ln R/dn|
    # stays below ~1e3 at the flank, so n_inf's tol moves them by < 1e-6)
    "n_inf": (0.0, _SEARCH_TOL),
    "delta_n": (1e-6, 0.0),
    "slope": (1e-6, 0.0),
    "noise": (1e-6, 0.0),
}

_VALIDATE_LINE = re.compile(r"(ok  |FAIL) (.*): max deviation (\S+) \(tolerance (\S+)\)")


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and normalised stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), notes + err.getvalue()


def _cells(text: str) -> list[tuple[str, object]]:
    """The ``(column, value)`` pairs of a CSV, JSON or validate report, in order."""
    if text.startswith("["):
        return [(key, value) for record in json.loads(text) for key, value in record.items()]
    lines = text.splitlines()
    matches = [_VALIDATE_LINE.fullmatch(line) for line in lines[:-1]]
    if lines and all(matches):
        return [*((column, cell) for match in matches for column, cell in
                  zip(("ok", "check", "max_deviation", "tolerance"), match.groups())),
                ("summary", lines[-1])]
    header = lines[0].split(",") if lines else []
    cells = [("header", text.split("\n", 1)[0])]
    for line in lines[1:]:
        row = line.split(",")
        if len(row) != len(header):
            return [("text", text)]
        cells += zip(header, row)
    return cells


def _within_budget(column: str, expected, got) -> bool:
    if expected == got and type(expected) is type(got):
        return True
    if column not in BUDGETS:
        return False
    rel, abs_ = BUDGETS[column]
    try:
        a, b = float(expected), float(got)
    except (TypeError, ValueError):
        return False
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))  # False for NaN


def differences(record: dict, code: int, out: str, err: str) -> list[str]:
    """What in a run differs from its record beyond the column budgets."""
    found = []
    if code != record["exit_code"]:
        found.append(f"exit code {code}, recorded {record['exit_code']}")
    if err != "\n".join(record["stderr"]):
        found.append(f"stderr {err!r}")
    expected, got = _cells("\n".join(record["stdout"])), _cells(out)
    if len(expected) != len(got) or [c for c, _ in expected] != [c for c, _ in got]:
        return [*found, "stdout has another shape"]
    for (column, want), (_, have) in zip(expected, got):
        if not _within_budget(column, want, have):
            found.append(f"{column}: {have!r}, recorded {want!r}")
    return found


def load_corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", load_corpus(), ids=lambda record: record["name"])
def test_cli_matches_recorded_run(record, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # config paths in the corpus are relative to it
    monkeypatch.delenv("PLASMON_DISPERSION_DIR", raising=False)
    code, out, err = run(record["argv"])
    assert differences(record, code, out, err) == []
