import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stokesheat import cli
from stokesheat.config import FLAGS, FORMATS, flag_overrides, load_config
from stokesheat.errors import ConfigError


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc", [
    {"io": {"out_dir": None}},
    {"io": {"format": None}},
    {"basis": {"lambda_max": None}},
    {"region": {"x1": None}},
    {"threads": None},
])
def test_null_rejected_where_default_is_not_none(tmp_path, capsys, doc):
    path = write_config(tmp_path / "cfg.json", doc)
    with pytest.raises(ConfigError):
        load_config(path)
    assert cli.main(["eigens", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_null_accepted_where_default_is_none(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "basis": {"k_max": None}, "kernel": {"support": None},
        "io": {"cache_path": None}})
    cfg = load_config(path)
    assert cfg.basis.k_max is None and cfg.io.cache_path is None
    assert cfg.kernel.support == (0.25, 0.75)


@pytest.mark.parametrize("doc", [
    {"threads": True},
    {"basis": {"lambda_max": True}},
    {"schedule": {"seed": False}},
    {"schedule": {"final_tol": True}},
    {"sweeps": {"t_list": [0.1, True]}},
    {"io": {"out_dir": 5}},
    {"basis": {"lambda_max": "inf"}},
    {"schedule": {"gamma": 10 ** 400}},
    {"sweeps": {"lambda_list": [25.0, float("nan")]}},
])
def test_booleans_wrong_types_and_non_finite_rejected(tmp_path, capsys, doc):
    path = write_config(tmp_path / "cfg.json", doc)
    with pytest.raises(ConfigError):
        load_config(path)
    assert cli.main(["eigens", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", {"schedule": {"seed": -1}})
    with pytest.raises(ConfigError, match="schedule.seed"):
        load_config(path)
    out_dir = str(tmp_path / "out")
    assert cli.main(["control", "--lambda-max", "80", "--lambda-cap", "64",
                     "--seed", "-1", "--out-dir", out_dir]) == 2
    assert "schedule.seed must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("key, flag, values", [
    ("lambda_list", "--lambda-list", [25.0, 50.0, 25.0]),
    ("t_list", "--t-list", [0.2, 0.2, 0.4, 0.8]),
])
def test_repeated_sweep_entry_is_a_config_error(tmp_path, capsys, key, flag,
                                                 values):
    # a repeated entry would be computed twice and counted twice by the fits
    message = f"sweeps.{key} repeats the entry {values[0]!r}"
    path = write_config(tmp_path / "cfg.json", {"sweeps": {key: values}})
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    sweeps = {"--lambda-list": "30", "--t-list": "0.5",
              flag: ",".join(map(repr, values))}
    out_dir = str(tmp_path / "out")
    argv = ["observe", "--lambda-max", "40", "--out-dir", out_dir]
    assert cli.main(argv + [a for pair in sweeps.items() for a in pair]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_file_structure_errors(tmp_path):
    for doc, text in (({"basis.lambda_max": 80}, "unknown key basis.lambda_max"),
                      ({"basis": [80]}, "basis must be an object")):
        with pytest.raises(ConfigError, match=text):
            load_config(write_config(tmp_path / "cfg.json", doc))


TWO_PI = 2.0 * math.pi
positive = st.floats(0.01, 1e4)
unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
names = st.text("abcdefghij_0123456789", min_size=1, max_size=8)


def interval(lo, hi, elements):
    return st.tuples(elements, elements).map(sorted).filter(
        lambda p: lo <= p[0] < p[1] <= hi).map(tuple)


@st.composite
def configs(draw):
    """A valid config document with a value for every key."""
    s0 = draw(st.floats(0.1, 10.0))
    support = draw(st.none() | interval(0.01, 0.99, unit).map(
        lambda p: (p[0] * s0, p[1] * s0)).filter(lambda p: p[0] < p[1]))
    return {
        "basis": {"lambda_max": draw(positive),
                  "k_max": draw(st.none() | st.integers(1, 200)),
                  "density": draw(st.integers(4, 64)),
                  "refine_tol": draw(st.floats(1e-15, 0.5))},
        "region": {"x1": draw(interval(0.0, TWO_PI, st.floats(0.0, TWO_PI))),
                   "x2": draw(interval(0.0, 1.0, unit))},
        "kernel": {"s0": s0, "support": support},
        "schedule": {"t_horizon": draw(st.floats(1e-3, 1.0)),
                     "gamma": draw(st.floats(1.01, 5.0)),
                     "epsilon": draw(st.floats(0.01, 0.99)),
                     "lambda_cap": draw(positive),
                     "reg_threshold": draw(st.floats(1e-15, 0.5)),
                     "z0_modes": draw(st.integers(0, 100)),
                     "seed": draw(st.integers(0, 2 ** 31)),
                     "final_tol": draw(st.floats(1e-12, 1.0))},
        "sweeps": {"lambda_list": draw(st.lists(positive, min_size=1, max_size=6,
                                                unique=True)),
                   "t_list": draw(st.lists(positive, min_size=1, max_size=6,
                                           unique=True))},
        "io": {"cache_path": draw(st.none() | names), "out_dir": draw(names),
               "format": draw(st.sampled_from(FORMATS))},
        "threads": draw(st.integers(1, 8)),
    }


def as_flags(doc):
    """The same values as command-line flags; keys without a flag stay in
    the returned remainder document."""
    rest = json.loads(json.dumps(doc))
    argv = []
    for flag, key in FLAGS.items():
        section, _, name = key.rpartition(".")
        if key == "region":
            value = list(rest["region"].pop("x1")) + list(rest["region"].pop("x2"))
        elif section:
            value = rest[section].pop(name)
        else:
            value = rest.pop(key)
        if value is not None:
            text = (",".join(map(repr, value)) if isinstance(value, list)
                    else repr(value) if not isinstance(value, str) else value)
            argv += [flag, text]
    return argv, rest


@settings(max_examples=60, deadline=None)
@given(doc=configs())
def test_file_and_flags_give_the_same_config(doc):
    argv, rest = as_flags(doc)
    assert rest["basis"] == {"refine_tol": doc["basis"]["refine_tol"]}
    with tempfile.TemporaryDirectory() as tmp:
        full = os.path.join(tmp, "full.json")
        remainder = os.path.join(tmp, "rest.json")
        for path, content in ((full, doc), (remainder, rest)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        args = cli.build_parser().parse_args(["eigens", "--config", remainder]
                                             + argv)
        from_flags = load_config(args.config, flag_overrides(args))
        from_file = load_config(full)
    assert dataclasses.asdict(from_flags) == dataclasses.asdict(from_file)


def echo(argv):
    out = io.StringIO()
    with mock.patch.dict(cli._COMMANDS, {"eigens": lambda cfg, out_dir: 0}), \
            contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    line = out.getvalue().splitlines()[0]
    assert line.startswith("config: ")
    return line


@settings(max_examples=30, deadline=None)
@given(doc=configs())
def test_echoed_config_round_trips(doc):
    with tempfile.TemporaryDirectory() as tmp:
        doc["io"]["out_dir"] = os.path.join(tmp, doc["io"]["out_dir"])
        argv, rest = as_flags(doc)
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rest, fh)
        first = echo(["eigens", "--config", path] + argv)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(first[len("config: "):])
        assert echo(["eigens", "--config", path]) == first
