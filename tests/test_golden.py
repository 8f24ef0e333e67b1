"""Seeded CLI runs compared with records kept in ``tests/golden``.

Strings and integers must match exactly; floats within 1e-12 absolute or
1e-9 relative. A change that moves a number past that regenerates the
records with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from nvlgi.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "nv-seed42": ["nv", "--seed", "42"],
    "nv-seed42-csv": ["nv", "--seed", "42", "--format", "csv"],
    "nv-ideal": ["nv", "--ideal", "--seed", "1"],
    "ideal-neumann": ["ideal", "--theta", "0.416pi", "--seed", "1"],
    "ideal-luders": ["ideal", "--theta", "0.416pi", "--scheme", "luders", "--seed", "1"],
    "sweep-qutrit": ["ideal", "--sweep", "--seed", "1"],
    "sweep-qubit": ["ideal", "--sweep", "--system", "qubit", "--seed", "1"],
    "ideal-n10": ["ideal", "--theta", "0.3pi", "--n", "10", "--seed", "1"],
    "odmr": ["characterize", "odmr", "--seed", "1"],
    "odmr-cg-csv": ["characterize", "odmr", "--cg", "--format", "csv", "--seed", "1"],
    "cg-repeat-noise": ["characterize", "cg-repeat", "--noise", "0.01", "--seed", "1"],
    "fid": ["characterize", "fid", "--seed", "1"],
    "fid-noise": ["characterize", "fid", "--noise", "0.01", "--seed", "3", "--points", "100"],
}


def record_path(name: str) -> Path:
    suffix = "csv" if "csv" in COMMANDS[name] else "json"
    return GOLDEN / f"{name}.{suffix}"


def parse(text: str, suffix: str):
    """JSON as loaded; CSV as rows of int, float or str cells."""
    if suffix == ".json":
        return json.loads(text)

    def cell(value: str):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
        return value

    return [[cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


def assert_same(got, want, where="record"):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_matches_golden_record(name, capsys):
    assert main(COMMANDS[name]) == EXIT_OK
    path = record_path(name)
    assert_same(parse(capsys.readouterr().out, path.suffix), parse(path.read_text(), path.suffix))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != EXIT_OK:
                sys.exit(f"{name}: {argv} failed")
        record_path(name).write_text(out.getvalue())
