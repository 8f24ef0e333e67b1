import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from nvlgi.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    format_theta,
    load_config,
    main,
    parse_theta,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestThetaParsing:
    def test_pi_multiples(self):
        assert parse_theta("0.416pi") == pytest.approx(0.416 * np.pi)
        assert parse_theta("pi") == pytest.approx(np.pi)
        assert parse_theta("0.5PI") == pytest.approx(np.pi / 2)

    def test_plain_radians(self):
        assert parse_theta("1.307") == pytest.approx(1.307)


class TestIdealCommand:
    def test_maximum_point(self, capsys):
        code, out = run(capsys, "ideal", "--theta", "0.416pi", "--scheme", "neumann",
                        "--seed", "1")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["outputs"]["k3"] == pytest.approx(1.756, abs=1e-3)
        assert record["outputs"]["k3_analytic"] == pytest.approx(record["outputs"]["k3"])

    def test_luders_theta_zero(self, capsys):
        code, out = run(capsys, "ideal", "--theta", "0", "--scheme", "luders", "--seed", "1")
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["k3"] == pytest.approx(1.0)

    def test_luders_qubit_sweep(self, capsys):
        code, out = run(capsys, "ideal", "--sweep", "--grid", "10000",
                        "--scheme", "luders", "--system", "qubit", "--seed", "1")
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["k3_max"] == pytest.approx(1.5, abs=1e-6)

    def test_kn_string(self, capsys):
        code, out = run(capsys, "ideal", "--theta", "0.3pi", "--n", "4", "--seed", "1")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["outputs"]["kn"] == pytest.approx(sum(record["outputs"]["terms"]))

    def test_missing_theta_is_usage_error(self, capsys):
        code, _ = run(capsys, "ideal", "--seed", "1")
        assert code == EXIT_USAGE


class TestNvCommand:
    def test_nominal_window(self, capsys):
        code, out = run(capsys, "nv", "--seed", "3")
        assert code == EXIT_OK
        record = json.loads(out)
        assert 1.60 <= record["outputs"]["k3"] <= 1.66
        assert record["outputs"]["exceeds_luders_by"] >= 0.1
        pops = record["outputs"]["populations"]
        for j in range(1, 5):
            assert sum(pops[f"variant_{j}"]) == pytest.approx(1.0, abs=1e-9)

    def test_ideal_exceeds_experiment(self, capsys):
        code, out = run(capsys, "nv", "--ideal", "--seed", "3")
        record = json.loads(out)
        assert record["outputs"]["k3"] == pytest.approx(1.7565, abs=1e-3)
        assert record["outputs"]["k3"] > record["outputs"]["k3_exp_reference"]

    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["nv", "--seed", "42", "--output", str(p)]) == EXIT_OK
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"theta": "0.416pi", "pol_e": 1.0, "pol_n": 1.0,
                                       "flip_prob_p": 1.0, "t2_star": 62e-6}))
        code, out = run(capsys, "nv", "--config", str(cfg), "--seed", "1")
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["k3"] == pytest.approx(1.7565, abs=1e-3)

    def test_config_seed_is_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NVLGI_SEED", raising=False)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"seed": 5, "averaging": "monte-carlo", "n_samples": 50}))
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["nv", "--config", str(cfg), "--output", str(p)]) == EXIT_OK
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        record = json.loads(paths[0].read_text())
        assert record["provenance"] == {"seed": 5, "version": record["provenance"]["version"]}
        assert record["inputs"]["imperfections"]["seed"] == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"theta": "0.1pi", "bogus": 1}))
        code, _ = run(capsys, "nv", "--config", str(cfg), "--seed", "1")
        assert code == EXIT_USAGE

    def test_zero_flip_probability_numerical_failure(self, capsys):
        code, _ = run(capsys, "nv", "--flip-prob", "0.0", "--seed", "1")
        assert code == EXIT_NUMERICAL

    def test_large_ensemble_matches_single_sample(self, tmp_path, capsys):
        # nv never passes mw_rabi, so no ensemble is drawn: 400 Gauss-Hermite
        # nodes, beyond what numpy's rule can give, change nothing
        texts = []
        for n in ("400", "1"):
            path = tmp_path / f"n{n}.csv"
            argv = ["nv", "--seed", "1", "--n-samples", n, "--format", "csv", "--output", str(path)]
            assert main(argv) == EXIT_OK
            texts.append(path.read_text())
        capsys.readouterr()
        assert "nan" not in texts[0]
        assert texts[0] == texts[1]

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(["nv", "--seed", "5", "--format", "csv", "--output", str(path)]) == EXIT_OK
        capsys.readouterr()
        lines = path.read_text().splitlines()
        assert lines[0] == "populations"
        assert lines[1].split(",") == ["variant", "level", "population"]
        assert len([l for l in lines if l.startswith(("1,", "2,", "3,", "4,"))]) == 24


class TestCharacterizeCommand:
    def test_fid(self, capsys):
        code, out = run(capsys, "characterize", "fid", "--t2star", "62us",
                        "--points", "60", "--seed", "1")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["outputs"]["t2_star_hat"] == pytest.approx(62e-6, rel=0.02)

    def test_cg_repeat(self, capsys):
        code, out = run(capsys, "characterize", "cg-repeat", "--p", "0.995",
                        "--kmax", "30", "--noise", "0.01", "--seed", "1")
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["p_hat"] == pytest.approx(0.995, abs=0.005)

    def test_odmr(self, capsys):
        code, out = run(capsys, "characterize", "odmr", "--p", "1.0", "--seed", "1")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["outputs"]["dip_spacing_hz"] == pytest.approx(2.16e6)

    def test_unseeded_run_records_seed(self, capsys):
        code, out = run(capsys, "characterize", "odmr", "--points", "11")
        assert code == EXIT_OK
        record = json.loads(out)
        assert isinstance(record["provenance"]["seed"], int)
        assert "timestamp" in record["provenance"]


def test_json_round_trip(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["ideal", "--theta", "0.416pi", "--seed", "9", "--output", str(path)]) == EXIT_OK
    capsys.readouterr()
    record = json.loads(path.read_text())
    assert json.loads(json.dumps(record)) == record


# configs PyYAML's safe loaders refuse, written as raw text or bytes
MALFORMED_YAML = {
    "yaml-malformed": "pol_e: [0.9\n",
    "yaml-python-tag": "pol_e: !!python/object:os.system {}\n",
    "yaml-unhashable-key": "? [1, 2]\n: 3\n",
    # a UTF-16 byte-order mark, then bytes that are not UTF-16
    "yaml-not-unicode": b"\xff\xfepol_e: 0.9\n",
}
NOT_YAML = "run.yaml is not valid YAML"


@pytest.mark.parametrize(
    "config, argv, expected, message",
    [
        ({"theta": 0.416}, [], EXIT_OK, None),  # a numeric YAML theta is radians
        ({"n_samples": "abc"}, [], EXIT_USAGE, "n_samples"),
        ({"f_rabi": 0}, [], EXIT_USAGE, "f_rabi"),
        (None, ["ideal", "--theta", "nan"], EXIT_USAGE, "theta"),
        (None, ["characterize", "odmr", "--cg", "--p", "nan", "--format", "csv"], EXIT_USAGE,
         "--p"),
        (None, ["characterize", "odmr", "--cg", "--p", "1.5"], EXIT_USAGE, "flip probability"),
        (None, ["characterize", "cg-repeat", "--noise", "nan"], EXIT_USAGE, "--noise"),
        (None, ["characterize", "cg-repeat", "--noise", "-0.01"], EXIT_USAGE, "--noise"),
        (None, ["characterize", "fid", "--delta-ref", "inf"], EXIT_USAGE, "--delta-ref"),
        (None, ["characterize", "fid", "--t2star", "nan"], EXIT_USAGE, "--t2star"),
        (None, ["characterize", "odmr", "--points", "0"], EXIT_USAGE, "--points"),
        (None, ["characterize", "fid", "--points", "4"], EXIT_USAGE, "--points"),
        (None, ["characterize", "cg-repeat", "--points", "50"], EXIT_USAGE, "--points"),
        (None, ["ideal", "--sweep", "--n", "5"], EXIT_USAGE, "--n"),
        (None, ["characterize", "cg-repeat", "--kmax", "0"], EXIT_USAGE, "--kmax"),
        (None, ["characterize", "cg-repeat", "--kmax", "1"], EXIT_USAGE, "--kmax"),
        (None, ["characterize", "cg-repeat", "--p", "0"], EXIT_NUMERICAL, "positive points"),
        (None, ["characterize", "fid", "--delta-ref", "1e30"], EXIT_USAGE, "--delta-ref"),
        (None, ["characterize", "fid", "--t2star", "5e-324"], EXIT_USAGE, "--t2star"),
        # sigma is finite here, but the quadrature nodes sqrt(2)*sigma*x overflow
        (None, ["characterize", "fid", "--t2star", "1e-308"], EXIT_USAGE, "--t2star"),
        # sizes above the cap are usage errors, also beyond numpy's index range
        (None, ["characterize", "odmr", "--points", str(10**15)], EXIT_USAGE, "--points"),
        (None, ["characterize", "fid", "--points", str(10**15)], EXIT_USAGE, "--points"),
        (None, ["characterize", "cg-repeat", "--kmax", str(10**15)], EXIT_USAGE, "--kmax"),
        (None, ["characterize", "odmr", "--points", str(2**63 - 1)], EXIT_USAGE, "--points"),
        (MALFORMED_YAML["yaml-malformed"], [], EXIT_USAGE, NOT_YAML),
        (MALFORMED_YAML["yaml-python-tag"], [], EXIT_USAGE, NOT_YAML),
        (MALFORMED_YAML["yaml-unhashable-key"], [], EXIT_USAGE, NOT_YAML),
        (MALFORMED_YAML["yaml-not-unicode"], [], EXIT_USAGE, NOT_YAML),
        # the string would take ~5 months at 13 us per time; the cap rejects it first
        (None, ["ideal", "--theta", "0.4pi", "--n", str(10**12)], EXIT_USAGE, "--n"),
        # from ~1e155 the fit's sum of squares overflows
        (None, ["characterize", "fid", "--noise", "1e160"], EXIT_NUMERICAL, "numerical failure:"),
        # noise-dominated curves whose fitted T2* error exceeds the estimate
        (None, ["characterize", "fid", "--noise", "1", "--points", "30", "--seed", "11"],
         EXIT_NUMERICAL, "unresolved decay estimate"),
        (None, ["characterize", "fid", "--noise", "1", "--points", "30", "--seed", "13"],
         EXIT_NUMERICAL, "unresolved decay estimate"),
        (None, ["nv", "--t2-star", "inf"], EXIT_USAGE, "--t2-star"),
        (None, ["ideal", "--theta", "1", "--n", "2"], EXIT_USAGE, "--n"),
        (None, ["ideal", "--theta", "1", "--grid", "5"], EXIT_USAGE, "--grid"),
        # flags are checked whatever the subcommand does with them
        (None, ["characterize", "odmr", "--kmax", "1"], EXIT_USAGE, "--kmax"),
        ({"pol_e": "0.9"}, [], EXIT_USAGE, "pol_e"),  # only theta and averaging take text
        ({"n_samples": 50.0}, [], EXIT_USAGE, "n_samples"),
        ({"pol_e": True}, [], EXIT_USAGE, "pol_e"),
    ],
    ids=[
        "yaml-theta-float", "yaml-n-samples-str", "yaml-f-rabi-zero", "cli-theta-nan",
        "odmr-p-nan", "odmr-p-above-one", "cg-noise-nan", "cg-noise-negative",
        "fid-delta-ref-inf", "fid-t2star-nan", "odmr-points-zero", "fid-points-four",
        "cg-repeat-points", "sweep-n-five", "cg-repeat-kmax-zero", "cg-repeat-kmax-one",
        "cg-repeat-p-zero", "fid-delta-ref-alias", "fid-t2star-subnormal",
        "fid-t2star-subnormal-nodes", "odmr-points-huge", "fid-points-huge", "cg-repeat-kmax-huge",
        "odmr-points-int64-max",
        *MALFORMED_YAML, "ideal-n-huge", "fid-noise-huge", "fid-unresolved-seed-11",
        "fid-unresolved-seed-13", "nv-t2-star-inf", "ideal-n-two",
        "ideal-grid-five", "odmr-kmax-one", "yaml-pol-e-quoted", "yaml-n-samples-float",
        "yaml-pol-e-bool",
    ],
)
def test_bad_inputs_exit_cleanly(tmp_path, capsys, config, argv, expected, message):
    if config is not None:
        path = tmp_path / "run.yaml"
        if isinstance(config, dict):
            config = yaml.safe_dump(config)
        path.write_bytes(config if isinstance(config, bytes) else config.encode())
        argv = ["nv", "--config", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv if "--seed" in argv else [*argv, "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == expected
    if expected == EXIT_OK:
        record = json.loads(out, parse_constant=pytest.fail)
        assert record["inputs"]["theta"] == format_theta(0.416)
        assert np.isfinite(record["outputs"]["k3"])
    else:
        assert out == ""
        assert message in err and "Traceback" not in err
    if expected == EXIT_NUMERICAL:
        assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_fid_fit_without_covariance_warns_nothing(capsys):
    # five noiseless points: curve_fit cannot estimate the covariance; 10 kHz stays
    # below the Nyquist frequency of five points over 2*T2* (16 kHz)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["characterize", "fid", "--points", "5", "--delta-ref", "10e3",
                     "--seed", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert caught == []
    assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_fid_fit_at_tiny_t2star_warns_nothing(capsys):
    # the fit runs in units of the grid span, so its Jacobian never divides 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["characterize", "fid", "--t2star", "1e-300", "--seed", "1"])
    record = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert record["outputs"]["t2_star_hat"] == pytest.approx(1e-300, rel=1e-6)


LAZY_MODULES = ("scipy", "yaml")


def lazy_modules_loaded(*commands):
    """The LAZY_MODULES a fresh interpreter holds after running ``commands`` through main."""
    script = (
        "import contextlib, io, sys\n"
        "from nvlgi import cli\n"
        f"for argv in {[list(c) for c in commands]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        f"print(' '.join(m for m in {LAZY_MODULES!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.split()


def test_ideal_and_nv_import_neither_scipy_fit_nor_yaml(tmp_path):
    # each of these modules costs tens to hundreds of ms of start-up; the runtime needs
    # no scipy, and only --config needs yaml
    loaded = lazy_modules_loaded(["ideal", "--theta", "0.416pi", "--seed", "1"],
                                 ["nv", "--seed", "42"])
    assert loaded == []
    config = tmp_path / "nv.yaml"
    config.write_text("pol_e: 0.9\n")
    assert lazy_modules_loaded(["nv", "--config", str(config), "--seed", "1"]) == ["yaml"]


@pytest.mark.parametrize(
    "env, config, argv, message",
    [
        (None, None, ["characterize", "cg-repeat", "--seed", "-1"], "--seed"),
        (None, None, ["nv", "--seed", "-1"], "--seed"),
        ("-3", None, ["characterize", "odmr"], "NVLGI_SEED"),
        ("abc", None, ["ideal", "--theta", "1"], "NVLGI_SEED"),
        (None, {"seed": -2}, ["nv"], "config seed"),
    ],
    ids=["cg-repeat-seed-negative", "nv-seed-negative", "env-seed-negative", "env-seed-text",
         "config-seed-negative"],
)
def test_bad_seeds_exit_cleanly(tmp_path, capsys, monkeypatch, env, config, argv, message):
    if env is None:
        monkeypatch.delenv("NVLGI_SEED", raising=False)
    else:
        monkeypatch.setenv("NVLGI_SEED", env)
    if config is not None:
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(config))
        argv = [*argv, "--config", str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err and "Traceback" not in err


def test_yaml_loaders_agree(tmp_path, monkeypatch):
    # load_config reads with libyaml's CSafeLoader where PyYAML has it, else SafeLoader
    configs = [
        {"theta": "0.416pi", "pol_e": 1.0, "pol_n": 1.0, "flip_prob_p": 1.0, "t2_star": 62e-6},
        {"seed": 5, "averaging": "monte-carlo", "n_samples": 50},
        {"theta": "0.1pi", "bogus": 1},
        {"theta": 0.416},
        {"n_samples": "abc"},
        {"f_rabi": 0},
        {"seed": -2},
        {"pol_e": "0.9"},
        {"t2_star": None, "averaging": "gauss-hermite"},
    ]
    texts = [yaml.safe_dump(c) for c in configs] + list(MALFORMED_YAML.values())
    paths = [tmp_path / f"run{i}.yaml" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())

    def load_all():
        results = []
        for path in paths:
            try:
                results.append(load_config(str(path), argparse.Namespace()))
            except UsageError as exc:
                results.append(("UsageError", str(exc)))
        return results

    with_libyaml = load_all()
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_all() == with_libyaml
    assert with_libyaml[0]["t2_star"] == 62e-6
    malformed = with_libyaml[-len(MALFORMED_YAML):]
    assert [r[0] for r in malformed] == ["UsageError"] * len(MALFORMED_YAML)
