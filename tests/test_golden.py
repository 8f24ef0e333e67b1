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
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nvlgi.cli import EXIT_OK, EXIT_USAGE, main

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


def test_interleaved_calls_share_no_state(tmp_path, capsys):
    # the parser and the standard schemes are built once per process, so each call
    # must print what it prints alone whatever ran before it in the same process
    config = tmp_path / "run.yaml"
    config.write_text("pol_e: 0.9\nseed: 7\naveraging: monte-carlo\nn_samples: 50\n")
    extra = {"nv-config": ["nv", "--config", str(config)], "bad-option": ["ideal", "--bogus"]}
    order = ["sweep-qutrit", "ideal-neumann", "nv-config", "odmr-cg-csv", "bad-option",
             "sweep-qubit", "ideal-luders", "nv-seed42-csv", "ideal-n10", "nv-seed42"]
    first = {}
    for name in order * 2:
        code = main(COMMANDS.get(name) or extra[name])
        out = capsys.readouterr().out
        assert code == (EXIT_USAGE if name == "bad-option" else EXIT_OK), name
        if name in COMMANDS:
            path = record_path(name)
            assert_same(parse(out, path.suffix), parse(path.read_text(), path.suffix), name)
        assert first.setdefault(name, out) == out, name


def test_records_and_gauss_hermite_need_no_scipy():
    # a fresh interpreter in which any import of scipy fails: every recorded command and
    # a Gauss-Hermite ensemble must still run, and give the recorded numbers
    script = (
        "import contextlib, io, math, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from test_golden import COMMANDS, assert_same, main, parse, record_path\n"
        "from nvlgi.noise import ImperfectionModel\n"
        "from nvlgi.nv import population_table\n"
        "for name, argv in COMMANDS.items():\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0, name\n"
        "    path = record_path(name)\n"
        "    assert_same(parse(out.getvalue(), path.suffix), parse(path.read_text(), path.suffix), name)\n"
        "table = population_table(0.416 * math.pi, ImperfectionModel(), mw_rabi=65e3)\n"
        "assert np.isfinite(table).all()\n"
        "print(len(COMMANDS))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(len(COMMANDS))]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != EXIT_OK:
                sys.exit(f"{name}: {argv} failed")
        record_path(name).write_text(out.getvalue())
