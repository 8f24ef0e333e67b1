"""Fuzz the CLI through its option table: every flag and config key, inside and
outside its domain, run in process through ``cli.main``.

Inside the domain a run may end in a numerical failure (exit 2) but never in a
usage error (exit 1); the strategies keep clear of the rules that tie two
options together. Outside it the run exits 1 and names the flag or key. Either
way nothing escapes ``main``, no warning is raised, and exit 0 writes a strict
JSON record with finite numbers.
"""

import contextlib
import io
import json
import math
import sys
import warnings

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nvlgi.cli import CONFIG_DOMAINS, EXIT_OK, EXIT_USAGE, MAX_POINTS, OPTIONS, main

FUZZ = settings(max_examples=60, derandomize=True, deadline=None)

MIN_NORMAL = sys.float_info.min
COMMANDS = ("ideal", "nv", "odmr", "cg-repeat", "fid")


def finite(lo=None, hi=None):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def reprs(strategy):
    return strategy.map(repr)


# sizes no run could allocate: inside the n_samples domain (the populations draw no
# ensemble from the CLI), outside the caps of --points and --kmax
HUGE = st.integers(10**15, 10**17)
UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
# (text, seconds) of a duration, bare or with a unit, so the test knows the value
DURATIONS = st.one_of(
    finite(MIN_NORMAL).map(lambda x: (repr(x), x)),
    st.tuples(finite(1e-290, 1e300), st.sampled_from(sorted(UNITS))).map(
        lambda pair: (f"{pair[0]!r}{pair[1]}", pair[0] * UNITS[pair[1]])
    ),
)
UNIT_INTERVAL = reprs(finite(0.0, 1.0))

# flag -> argv text inside both the table's domain and any range the library checks
IN_DOMAIN = {
    "--theta": st.one_of(reprs(finite()), finite(-1e300, 1e300).map(lambda x: f"{x!r}pi")),
    "--seed": st.integers(0, 2**64).map(str),
    "--t2-star": DURATIONS.map(lambda pair: pair[0]),
    "--pol-e": UNIT_INTERVAL,
    "--pol-n": UNIT_INTERVAL,
    "--flip-prob": UNIT_INTERVAL,
    "--n-samples": st.one_of(st.integers(1, 50), HUGE).map(str),
    "--n": st.integers(3, 50).map(str),
    "--grid": st.integers(100, 10**18).map(str),
    "--p": UNIT_INTERVAL,
    "--kmax": st.integers(2, 2000).map(str),
    "--t2star": DURATIONS.map(lambda pair: pair[0]),
    "--delta-ref": reprs(finite()),
    "--points": st.integers(5, 2000).map(str),
    "--noise": reprs(finite(0.0)),
}

JUNK = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e999", "0x10", "1,5"])
FRACTIONS = reprs(finite(-1e15, 1e15).filter(lambda x: not x.is_integer()))
NEGATIVE = reprs(finite(hi=-5e-324))
NOT_NORMAL = st.one_of(reprs(finite(hi=0.0)), reprs(st.floats(0.0, MIN_NORMAL, exclude_max=True)))
OUTSIDE_UNIT = reprs(st.one_of(finite(hi=-5e-324), finite(1.0 + 2**-52)))


def below(lo):
    return st.integers(max_value=lo - 1).map(str)


# above a size cap: its first value, huge sizes, and int64's largest
ABOVE_CAP = st.one_of(st.just(MAX_POINTS + 1), HUGE, st.just(2**63 - 1)).map(str)


# flag -> argv text outside the table's domain, or outside a library range whose
# message names the flag's config key
OUT_OF_DOMAIN = {
    "--theta": st.one_of(JUNK, st.sampled_from(["nanpi", "infpi", "1e308pi", "pipi", "pi1"])),
    "--seed": st.one_of(JUNK, FRACTIONS, below(0)),
    "--t2-star": st.one_of(JUNK, NOT_NORMAL, st.sampled_from(["0us", "-1ms", "1e-310s", "nans"])),
    "--pol-e": st.one_of(JUNK, OUTSIDE_UNIT),
    "--pol-n": st.one_of(JUNK, OUTSIDE_UNIT),
    "--flip-prob": st.one_of(JUNK, OUTSIDE_UNIT),
    "--n-samples": st.one_of(JUNK, FRACTIONS, below(1)),
    "--n": st.one_of(JUNK, FRACTIONS, below(3), st.integers(10_001, 10**20).map(str)),
    "--grid": st.one_of(JUNK, FRACTIONS, below(100)),
    "--p": JUNK,  # [0, 1] is the library's, and its message names no flag
    "--kmax": st.one_of(JUNK, FRACTIONS, below(2), ABOVE_CAP),
    "--t2star": st.one_of(JUNK, NOT_NORMAL, st.sampled_from(["0us", "-1ms", "1e-310s", "nans"])),
    "--delta-ref": JUNK,
    "--points": st.one_of(JUNK, FRACTIONS, below(1), ABOVE_CAP),
    "--noise": st.one_of(JUNK, NEGATIVE),
}

# config key -> YAML values inside the key's domain and the library's range
CONFIG_IN_DOMAIN = {
    "theta": st.one_of(finite(), finite(-1e300, 1e300).map(lambda x: f"{x!r}pi")),
    "seed": st.integers(0, 2**64),
    "t2_star": st.one_of(st.none(), finite(MIN_NORMAL)),
    "pol_e": st.one_of(finite(0.0, 1.0), st.sampled_from([0, 1])),
    "pol_n": finite(0.0, 1.0),
    "flip_prob_p": finite(0.0, 1.0),
    "n_samples": st.one_of(st.integers(1, 50), HUGE),
    "averaging": st.sampled_from(["monte-carlo", "gauss-hermite"]),
    "f_rabi": st.one_of(finite(MIN_NORMAL), st.integers(1, 10**6)),
}

WRONG_TYPE = st.one_of(st.booleans(), st.just([1]), st.just({"a": 1}), st.sampled_from(
    [math.nan, math.inf, -math.inf]))
QUOTED = st.one_of(reprs(finite()), st.sampled_from(["0.9", "62e-6", "1"]))
NUMBERS_OUT = st.one_of(WRONG_TYPE, QUOTED)

# config key -> YAML values outside the key's domain or a library range that names it
CONFIG_OUT_OF_DOMAIN = {
    "theta": st.one_of(WRONG_TYPE, st.sampled_from(["abc", "nanpi", "1e308pi", ""])),
    "seed": st.one_of(NUMBERS_OUT, st.integers(max_value=-1), st.just(5.0)),
    "t2_star": st.one_of(NUMBERS_OUT, finite(hi=0.0), st.floats(0.0, MIN_NORMAL, exclude_max=True)),
    "pol_e": st.one_of(NUMBERS_OUT, st.floats(1.0 + 2**-52, 1e300)),
    "pol_n": st.one_of(NUMBERS_OUT, finite(hi=-5e-324)),
    "flip_prob_p": st.one_of(NUMBERS_OUT, finite(1.0 + 2**-52)),
    "n_samples": st.one_of(NUMBERS_OUT, st.integers(max_value=0), st.just(50.0)),
    "averaging": st.one_of(WRONG_TYPE, st.none(), st.sampled_from(["bogus", "MONTE_CARLO"])),
    "f_rabi": st.one_of(NUMBERS_OUT, finite(hi=0.0)),
}


def table_flags(command):
    """The table's flags that ``command`` takes (odmr, cg-repeat, fid: characterize)."""
    name = command if command in ("ideal", "nv") else "characterize"
    return [flag for flag, _, _, commands, _ in OPTIONS if flag and name in commands.split()]


def head(command):
    return [command] if command in ("ideal", "nv") else ["characterize", command]


def run(argv):
    """Exit code, stdout and stderr of ``main(argv)``, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def assert_in_domain_run(argv):
    code, out, err = run(argv)
    assert code != EXIT_USAGE, (argv, err)
    assert "Traceback" not in err
    if code == EXIT_OK:
        record = json.loads(out, parse_constant=lambda name: math.nan)
        assert all(math.isfinite(x) for x in numbers(record)), (argv, record)
    else:
        assert out == "" and err.startswith("numerical failure:") and err.count("\n") == 1, err


def test_table_is_fuzzed_whole():
    flags = {flag for flag, *_ in OPTIONS if flag}
    assert set(IN_DOMAIN) == set(OUT_OF_DOMAIN) == flags
    assert set(CONFIG_IN_DOMAIN) == set(CONFIG_OUT_OF_DOMAIN) == set(CONFIG_DOMAINS)


@FUZZ
@given(data=st.data(), command=st.sampled_from(COMMANDS))
def test_in_domain_flags_never_make_a_usage_error(data, command):
    chosen = data.draw(st.sets(st.sampled_from(table_flags(command))), label="flags")
    values = {flag: data.draw(IN_DOMAIN[flag], label=flag) for flag in sorted(chosen)}
    values["--seed"] = values.get("--seed", "1")  # NVLGI_SEED in the environment stays unread
    # the rules on two options: --sweep only with --n 3, --theta unless --sweep,
    # --points >= 5 for fid and none for cg-repeat, --delta-ref below the fid grid's Nyquist
    sweep = command == "ideal" and data.draw(st.booleans(), label="sweep")
    if sweep:
        values.pop("--n", None)
    elif command == "ideal":
        values.setdefault("--theta", "0.416pi")
    elif command == "odmr" and "--points" in values:
        values["--points"] = str(data.draw(st.integers(1, 2000), label="points"))
    elif command == "cg-repeat":
        values.pop("--points", None)
    elif command == "fid":
        points = int(values.get("--points", "101"))
        t2star = 62e-6
        if "--t2star" in values:
            values["--t2star"], t2star = data.draw(DURATIONS, label="t2star")
        nyquist = (points - 1) / (4 * t2star)
        if nyquist == 0.0:  # 4 * t2star overflowed: no --delta-ref is below it
            values.pop("--t2star")
            nyquist = (points - 1) / (4 * 62e-6)
        fraction = data.draw(st.floats(-0.999, 0.999), label="fraction of Nyquist")
        delta_ref = fraction * min(nyquist, sys.float_info.max)
        # a subnormal Nyquist frequency can round the fraction up to itself
        values["--delta-ref"] = repr(delta_ref if abs(delta_ref) < nyquist else 0.0)
    # each flag written as flag=text or as two words: a negative value such as -5e3 or
    # -0.4pi must not be taken for an option
    spaced = data.draw(st.sets(st.sampled_from(sorted(values))), label="space-separated")
    words = [[flag, text] if flag in spaced else [f"{flag}={text}"] for flag, text in values.items()]
    argv = head(command) + ["--sweep"] * sweep + [word for pair in words for word in pair]
    assert_in_domain_run(argv)


@FUZZ
@given(data=st.data(), command=st.sampled_from(COMMANDS))
def test_out_of_domain_flag_is_a_usage_error_naming_it(data, command):
    flag = data.draw(st.sampled_from(table_flags(command)), label="flag")
    text = data.draw(OUT_OF_DOMAIN[flag], label="text")
    code, out, err = run(head(command) + [f"{flag}={text}", "--seed=1"])
    key = next(key for f, key, *_ in OPTIONS if f == flag)
    assert code == EXIT_USAGE, (flag, text, err)
    assert out == "" and "Traceback" not in err
    assert flag in err or (key is not None and key in err), (flag, text, err)


def write_config(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(config))
    return str(path)


@FUZZ
@given(data=st.data())
def test_in_domain_config_never_makes_a_usage_error(tmp_path_factory, data):
    keys = data.draw(st.sets(st.sampled_from(sorted(CONFIG_DOMAINS))), label="keys")
    config = {key: data.draw(CONFIG_IN_DOMAIN[key], label=key) for key in sorted(keys)}
    assert_in_domain_run(["nv", "--config", write_config(tmp_path_factory, config), "--seed=1"])


@FUZZ
@given(data=st.data(), key=st.sampled_from(sorted(CONFIG_DOMAINS)))
def test_out_of_domain_config_is_a_usage_error_naming_it(tmp_path_factory, data, key):
    config = {key: data.draw(CONFIG_OUT_OF_DOMAIN[key], label=key)}
    code, out, err = run(["nv", "--config", write_config(tmp_path_factory, config), "--seed=1"])
    assert code == EXIT_USAGE, (config, err)
    assert out == "" and "Traceback" not in err
    assert f"config {key}" in err or f"{key} must" in err, (config, err)
