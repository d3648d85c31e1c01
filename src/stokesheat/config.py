"""Run configuration: JSON file parsing, flag overrides, strict validation.

The dataclasses below are the one schema: their annotated fields are the
file keys, ``FLAGS`` maps command-line flags onto them, and a run echoes
``dataclasses.asdict`` of the result.

Unknown keys are rejected and every numeric constraint of the underlying
modules is re-checked here with a field-precise message, so bad runs die at
parse time with exit code 2 instead of deep inside a solve.
"""

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .errors import ConfigError

TWO_PI = 2.0 * math.pi
FORMATS = ("csv", "structured")


@dataclass
class BasisConfig:
    lambda_max: float = 1200.0
    k_max: int = None
    density: int = 16
    refine_tol: float = 1e-12


@dataclass
class RegionConfig:
    x1: tuple[float, float] = (0.0, math.pi)
    x2: tuple[float, float] = (0.3, 0.7)


@dataclass
class KernelConfig:
    s0: float = 1.0
    support: tuple[float, float] = None  # None: middle half of (0, s0)


@dataclass
class ScheduleConfig:
    t_horizon: float = 1.0
    gamma: float = 1.5
    epsilon: float = 0.5
    lambda_cap: float = 1024.0
    reg_threshold: float = 1e-12
    z0_modes: int = 30
    seed: int = 0
    final_tol: float = 1e-4


@dataclass
class SweepsConfig:
    lambda_list: tuple[float, ...] = (25.0, 50.0, 100.0, 200.0, 400.0)
    t_list: tuple[float, ...] = (0.1, 0.2, 0.4, 0.8)


@dataclass
class IoConfig:
    cache_path: str = None
    out_dir: str = "."
    format: str = "csv"         # one of FORMATS


@dataclass
class RunConfig:
    basis: BasisConfig = field(default_factory=BasisConfig)
    region: RegionConfig = field(default_factory=RegionConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    sweeps: SweepsConfig = field(default_factory=SweepsConfig)
    io: IoConfig = field(default_factory=IoConfig)
    threads: int = 1


# Command-line flag -> dotted config key, in --help order.  "--region" is the
# one flag that is not a key: it splits x1lo,x1hi,x2lo,x2hi into region.x1 and
# region.x2, whose pair type rejects any other count.
FLAGS = {
    "--lambda-max": "basis.lambda_max", "--k-max": "basis.k_max",
    "--density": "basis.density",
    "--gamma": "schedule.gamma", "--epsilon": "schedule.epsilon",
    "--t-horizon": "schedule.t_horizon", "--lambda-cap": "schedule.lambda_cap",
    "--reg-threshold": "schedule.reg_threshold",
    "--final-tol": "schedule.final_tol", "--seed": "schedule.seed",
    "--z0-modes": "schedule.z0_modes", "--region": "region",
    "--s0": "kernel.s0", "--kernel-support": "kernel.support",
    "--lambda-list": "sweeps.lambda_list", "--t-list": "sweeps.t_list",
    "--out-dir": "io.out_dir", "--cache": "io.cache_path",
    "--format": "io.format", "--threads": "threads",
}


def _schema():
    """{dotted key: dataclass field} for every key a config may set."""
    keys = {}
    for f in dataclasses.fields(RunConfig):
        if dataclasses.is_dataclass(f.type):
            keys.update((f"{f.name}.{g.name}", g) for g in dataclasses.fields(f.type))
        else:
            keys[f.name] = f
    return keys


_KEYS = _schema()


def _coerce(kind, value):
    """``value`` as the annotated type ``kind``; a tuple type also takes a
    comma-separated string, so flag and file values share this path."""
    if typing.get_origin(kind) is tuple:
        parts = value.split(",") if isinstance(value, str) else value
        items = tuple(_coerce(float, v) for v in parts)
        arity = typing.get_args(kind)
        if Ellipsis not in arity and len(items) != len(arity):
            raise ValueError(f"expected {len(arity)} values")
        return items
    if isinstance(value, bool) or (kind is str and not isinstance(value, str)):
        raise TypeError(f"not a {kind.__name__}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    value = kind(value)
    if kind is float and not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def load_config(path=None, overrides=None):
    """Build a validated RunConfig from an optional file plus overrides.

    ``overrides`` maps dotted keys ("schedule.gamma", "threads") to values
    and wins over file values; None values are ignored.
    """
    cfg = RunConfig()
    flat = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        for name, data in doc.items():
            if dataclasses.is_dataclass(getattr(cfg, name, None)):
                if not isinstance(data, dict):
                    raise ConfigError(f"{name} must be an object")
                flat.update((f"{name}.{key}", v) for key, v in data.items())
            elif "." in name:
                raise ConfigError(f"unknown key {name}")
            else:
                flat[name] = data
    flat.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    for dotted, value in flat.items():
        if dotted not in _KEYS:
            raise ConfigError(f"unknown key {dotted}")
        f = _KEYS[dotted]
        try:
            # null is a value only where the default is None
            coerced = (None if value is None and f.default is None
                       else _coerce(f.type, value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{dotted}: cannot interpret {value!r}: {exc}") from exc
        section, _, name = dotted.rpartition(".")
        setattr(getattr(cfg, section) if section else cfg, name, coerced)
    validate_config(cfg)
    return cfg


def add_flags(parser):
    """Add one option per FLAGS entry, stored under its dotted key."""
    for flag, key in FLAGS.items():
        kind = _KEYS[key].type if key in _KEYS else str
        parser.add_argument(
            flag, dest=key, type=kind if kind in (int, float) else str,
            choices=FORMATS if key == "io.format" else None,
            help="x1lo,x1hi,x2lo,x2hi" if key == "region" else None)


def flag_overrides(args):
    """Dotted-key overrides from the options added by :func:`add_flags`."""
    ov = {key: getattr(args, key) for key in FLAGS.values()}
    region = ov.pop("region")
    if region is not None:
        parts = region.split(",")
        ov["region.x1"], ov["region.x2"] = parts[:2], parts[2:]
    return ov


def validate_config(cfg):
    """Re-validate every module precondition with field-precise messages."""
    b = cfg.basis
    if not b.lambda_max > 0:
        raise ConfigError("basis.lambda_max must be positive")
    if b.k_max is not None and b.k_max < 1:
        raise ConfigError("basis.k_max must be >= 1")
    if b.density < 4:
        raise ConfigError("basis.density must be >= 4")
    if not 0 < b.refine_tol < 1:
        raise ConfigError("basis.refine_tol must be in (0, 1)")
    r = cfg.region
    if not (0.0 <= r.x1[0] < r.x1[1] <= TWO_PI):
        raise ConfigError("region.x1 must satisfy 0 <= a < b <= 2*pi")
    if not (0.0 < r.x2[0] < r.x2[1] < 1.0):
        raise ConfigError("region.x2 must lie strictly inside (0, 1) with a < b")
    k = cfg.kernel
    if not k.s0 > 0:
        raise ConfigError("kernel.s0 must be positive")
    if k.support is None:
        k.support = (0.25 * k.s0, 0.75 * k.s0)
    if not (0.0 < k.support[0] < k.support[1] < k.s0):
        raise ConfigError("kernel.support must lie strictly inside (0, s0)")
    s = cfg.schedule
    if not 0 < s.t_horizon <= 1:
        raise ConfigError("schedule.t_horizon must be in (0, 1]")
    if not s.gamma > 1:
        raise ConfigError("schedule.gamma must be > 1")
    if not 0 < s.epsilon < 1:
        raise ConfigError("schedule.epsilon must be in (0, 1)")
    if not s.lambda_cap > 0:
        raise ConfigError("schedule.lambda_cap must be positive")
    if not 0 < s.reg_threshold < 1:
        raise ConfigError("schedule.reg_threshold must be in (0, 1)")
    if s.z0_modes < 0:
        raise ConfigError("schedule.z0_modes must be >= 0 (0 runs from the zero state)")
    if not s.final_tol > 0:
        raise ConfigError("schedule.final_tol must be positive")
    if s.seed < 0:
        raise ConfigError("schedule.seed must be >= 0")
    w = cfg.sweeps
    if any(v <= 0 for v in w.lambda_list):
        raise ConfigError("sweeps.lambda_list entries must be positive")
    if any(not 0 < t for t in w.t_list):
        raise ConfigError("sweeps.t_list entries must be positive")
    # a repeated entry is computed twice and counted twice by the sweep fits
    for key, values in (("sweeps.lambda_list", w.lambda_list),
                        ("sweeps.t_list", w.t_list)):
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ConfigError(f"{key} repeats the entry {repeated!r}")
    if cfg.io.format not in FORMATS:
        raise ConfigError("io.format must be 'csv' or 'structured'")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    return cfg
