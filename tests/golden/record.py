"""Record, or check, the CLI corpus that ``tests/test_golden.py`` replays.

    python tests/golden/record.py          # re-record corpus.json
    python tests/golden/record.py --check  # compare the current code with it

Run from the repository root with ``src`` on ``PYTHONPATH``.  Re-record only on
purpose, and say in ``CHANGES.md`` which records changed and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))

from test_golden import CORPUS, _cells, differences, load_corpus, run  # noqa: E402

# reduced grids: the default stdout of the five sweeps is ~220 KB in CSV alone
GRIDS = {
    "reflectance": ["reflectance", "--theta-steps", "41"],
    "index-sweep": ["index-sweep", "--n-steps", "61"],
    "inflection": ["inflection", "--theta-steps", "19"],
    "ratio": ["ratio", "--n-steps", "41"],
    "precision": ["precision", "--theta-steps", "13"],
    "validate": ["validate"],
}

ARGVS = [
    *[[*grid, "--format", fmt] for grid in GRIDS.values() for fmt in ("csv", "json")],
    *[[*GRIDS[command], "--n-max", "1.8"] for command in ("index-sweep", "ratio", "precision")],
    [*GRIDS["inflection"], "--n-max", "1.32"],
    ["inflection", "--n-max", "1.32", "--theta-min", "64", "--theta-max", "65",
     "--theta-steps", "2"],
    [*GRIDS["inflection"], "--n-max", "1.7"],
    *[[*grid, flag, value] for flag, value in (("--n-prism", "0.9"), ("--thickness", "0"))
      for grid in GRIDS.values()],
    [*GRIDS["precision"], "--eta", "0"],
    [*GRIDS["precision"], "--dispersion", "gold-dl"],
    [*GRIDS["precision"], "--config", "state_tmsv.json"],
    [*GRIDS["precision"], "--config", "state_tmsv.json", "--format", "json"],
    *[[*GRIDS["ratio"], "--state", state, "--photons", "2"]
      for state in ("coherent", "tmsv", "noon", "squeezed", "squeezed-product")],
    *[["validate", *extra, "--format", fmt]
      for extra in (["--seed", "3"], ["--inject-fault"]) for fmt in ("csv", "json")],
    ["validate", "--thickness", "1e-300"],
]


def record() -> None:
    records = []
    for argv in ARGVS:
        code, out, err = run(argv)
        records.append({"name": " ".join(argv), "argv": argv, "exit_code": code,
                        "stdout": out.split("\n"), "stderr": err.split("\n")})
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} runs, {CORPUS.stat().st_size} bytes")


def shifts(record: dict, out: str) -> str:
    """The columns whose cells moved, how many moved, and the largest absolute and
    relative shift, in a run that is within budget but not byte-identical."""
    columns, moved, largest_abs, largest_rel = {}, 0, 0.0, 0.0
    for (column, want), (_, have) in zip(_cells("\n".join(record["stdout"])), _cells(out)):
        if want == have and type(want) is type(have):
            continue
        columns[column] = None
        moved += 1
        a, b = float(want), float(have)  # within budget, so both are numbers
        shift = abs(a - b)
        largest_abs = max(largest_abs, shift)
        largest_rel = max(largest_rel, shift / max(abs(a), abs(b)) if shift else 0.0)
    return (f"{moved} cell{'s' * (moved != 1)} moved in {', '.join(columns) or 'no column'}; "
            f"largest shift {largest_abs:.3g} absolute, {largest_rel:.3g} relative")


def check() -> int:
    identical = within = failed = 0
    for record in load_corpus():
        code, out, err = run(record["argv"])
        found = differences(record, code, out, err)
        if found:
            failed += 1
            print(f"DIFFERS {record['name']}: {'; '.join(found)}")
        elif out.split("\n") == record["stdout"]:
            identical += 1
        else:
            within += 1
            print(f"within budget, not byte-identical: {record['name']}: "
                  f"{shifts(record, out)}")
    print(f"{identical} byte-identical, {within} within budget, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the current code with the corpus instead")
    args = parser.parse_args()
    os.chdir(GOLDEN)  # config paths in the corpus are relative to it
    os.environ.pop("PLASMON_DISPERSION_DIR", None)
    if args.check:
        sys.exit(check())
    record()
