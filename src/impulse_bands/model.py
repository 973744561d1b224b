"""Domain types and config-file ingestion.

The config grammar is keyed plain text with bracketed sections::

    [diffusion]
    drift = "delta*(m - x)"
    vol = "sigma"
    alpha = 0.105
    lo = 0
    hi = inf
    boundary = "absorbing"
    penalty = 0.0

    [reward]
    f = "0"
    K = "k*(x - y)^gamma - Kfix"

    [params]
    delta = 0.1
    ...

    [solver]
    x_max = 2.5

Parameters from ``[params]`` are substituted into the expressions at parse
time, so the stored expressions are closed over x (and y for K).  All types
here are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ExprEvalError, ValidationError
from .expressions import Expr, parse_expr

DIAGNOSTIC_GRID_POINTS = 256

NATURAL = "natural"
ABSORBING = "absorbing"

# default half-width of the truncated working interval for unbounded state
# spaces, adequate for unit-volatility problems; override in [solver]
DEFAULT_SPAN = 20.0


@dataclass(frozen=True)
class DiffusionSpec:
    """Uncontrolled one-dimensional diffusion dX = mu dt + sigma dW."""

    drift: Expr
    vol: Expr
    alpha: float
    lo: float = -math.inf
    hi: float = math.inf
    boundary: str = NATURAL

    def __post_init__(self):
        if self.alpha < 0:
            raise ValidationError("discount rate alpha must be nonnegative")
        if not self.lo < self.hi:
            raise ValidationError("interval endpoints must satisfy lo < hi")
        if self.boundary not in (NATURAL, ABSORBING):
            raise ValidationError(
                f"boundary must be '{NATURAL}' or '{ABSORBING}', "
                f"got {self.boundary!r}")
        if self.boundary == ABSORBING and not math.isfinite(self.lo):
            raise ValidationError(
                "absorbing boundary requires a finite left endpoint")
        if self.boundary == NATURAL and self.alpha == 0.0:
            raise ValidationError(
                "alpha = 0 needs an absorbing boundary to keep rewards finite")

    @property
    def absorbing(self):
        return self.boundary == ABSORBING


@dataclass(frozen=True)
class ImpulseProblem:
    """Diffusion plus running reward f(x) and intervention reward K(x, y).

    Impulses are downward only: an intervention moves the state from x to a
    target y < x.  K(x, x) < 0 encodes the fixed cost of acting.
    """

    diffusion: DiffusionSpec
    running_reward: Expr
    intervention_reward: Expr
    ruin_penalty: float = 0.0

    def __post_init__(self):
        if self.ruin_penalty > 0:
            raise ValidationError("ruin penalty must be nonpositive")


@dataclass(frozen=True)
class BandPolicy:
    """Ordered (target a_k, trigger b_k) pairs with a common slope.

    ``slope`` and ``intercept`` describe the value line in transformed
    coordinates: W(y) = slope * (y - F_lo) + intercept, anchored at
    ``fixed_point_A = (F_lo, intercept)``.
    """

    bands: tuple
    slope: float
    intercept: float
    fixed_point_A: tuple

    def __post_init__(self):
        prev_b = None
        for a, b in self.bands:
            if not a < b:
                raise ValidationError(
                    f"band targets must precede triggers, got ({a}, {b})")
            if prev_b is not None and b is not None and a < prev_b:
                raise ValidationError(
                    "bands must be ordered with b_k <= a_(k+1)")
            prev_b = b

    @property
    def is_empty(self):
        return len(self.bands) == 0

    @property
    def triggers(self):
        return tuple(b for _, b in self.bands)

    @property
    def targets(self):
        return tuple(a for a, _ in self.bands)

    def to_dict(self):
        return {
            "bands": [[a, b] for a, b in self.bands],
            "slope": self.slope,
            "intercept": self.intercept,
            "fixed_point_A": list(self.fixed_point_A),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            bands=tuple((float(a), float(b)) for a, b in d["bands"]),
            slope=float(d["slope"]),
            intercept=float(d["intercept"]),
            fixed_point_A=tuple(float(v) for v in d["fixed_point_A"]),
        )


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs, overridable from the [solver] config section."""

    x_min: float | None = None
    x_max: float | None = None
    scan_points: int = 200
    oracle_nodes: int = 2000
    oracle_tol: float = 1e-6
    oracle_x_max: float | None = None
    normalization_point: float | None = None
    numeric_pair_tol: float = 1e-8

    def __post_init__(self):
        # config keys and command-line overrides (dataclasses.replace) both
        # pass through here
        if not self.oracle_nodes >= 2:
            raise ConfigError(
                f"oracle_nodes must be at least 2, got {self.oracle_nodes!r}")
        if not (self.oracle_tol > 0 and math.isfinite(self.oracle_tol)):
            raise ConfigError(
                "oracle_tol must be a finite number > 0, "
                f"got {self.oracle_tol!r}")


# annotations are strings under the __future__ import
_SOLVER_FIELD_TYPES = {
    f.name: int if f.type == "int" else float for f in fields(SolverOptions)}


@dataclass(frozen=True)
class LoadedConfig:
    problem: ImpulseProblem
    solver: SolverOptions


def resolve_window(problem, options):
    """Truncated working interval [x_min, x_max] for numerical work."""
    d = problem.diffusion
    x_min = options.x_min
    x_max = options.x_max
    if x_min is None:
        x_min = d.lo if math.isfinite(d.lo) else -DEFAULT_SPAN
    if x_max is None:
        x_max = d.hi if math.isfinite(d.hi) else x_min + 2 * DEFAULT_SPAN
    if not x_min < x_max:
        raise ConfigError(f"empty working interval [{x_min}, {x_max}]")
    if x_min < d.lo or x_max > d.hi:
        raise ConfigError("working interval must lie inside the state space")
    return float(x_min), float(x_max)


def diagnostic_grid(problem, options=None, n=DIAGNOSTIC_GRID_POINTS):
    options = options or SolverOptions()
    x_min, x_max = resolve_window(problem, options)
    # open at the ends: expressions may be singular exactly at a boundary
    pad = (x_max - x_min) / (n + 1)
    return np.linspace(x_min + pad, x_max - pad, n)


# ---------------------------------------------------------------------------
# Config text parsing
# ---------------------------------------------------------------------------

def _parse_scalar(raw, key, lineno):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    low = raw.lower()
    if low in ("inf", "+inf"):
        return math.inf
    if low == "-inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: value for {key!r} must be a number, inf, "
            f"or a quoted string, got {raw!r}") from None


def parse_config_text(text):
    """Parse the keyed plain-text grammar into {section: {key: value}}."""
    sections = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ConfigError(
                f"line {lineno}: key before any [section] header")
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        sections[current][key] = _parse_scalar(raw, key, lineno)
    return sections


def _number(value, key, section_name, kind=float):
    """value as a float (or an int for kind=int); ConfigError otherwise."""
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(
            f"[{section_name}] {key} must be a number, got {value!r}") from None
    if kind is int:
        if not out.is_integer():
            raise ConfigError(
                f"[{section_name}] {key} must be an integer, got {value!r}")
        return int(out)
    return out


def _require(section, key, section_name):
    if key not in section:
        raise ConfigError(f"missing required field {key!r} in [{section_name}]")
    return section[key]


def _validate_problem(problem, options):
    xs = diagnostic_grid(problem, options)
    d = problem.diffusion

    sigma = d.vol(xs)
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
        bad = xs[~(np.isfinite(sigma) & (sigma > 0))][0]
        raise ValidationError(f"volatility must be positive; fails at x={bad}")
    if d.absorbing:
        # the pair is built by integrating up to the absorbing end
        try:
            s_lo = d.vol(d.lo)
        except ExprEvalError:
            s_lo = math.nan
        if not (math.isfinite(s_lo) and s_lo > 0):
            raise ValidationError(
                "volatility must be positive at the absorbing boundary; "
                f"fails at x={d.lo} (vol={s_lo})")

    mu = d.drift(xs)
    if not np.all(np.isfinite(mu)):
        bad = xs[~np.isfinite(mu)][0]
        raise ValidationError(f"drift is not finite at x={bad}")

    f = problem.running_reward(xs)
    if not np.all(np.isfinite(f)):
        bad = xs[~np.isfinite(f)][0]
        raise ValidationError(f"running reward is not finite at x={bad}")

    kxx = problem.intervention_reward(xs, xs)
    if not np.all(np.isfinite(kxx) & (kxx < 0)):
        bad = xs[~(np.isfinite(kxx) & (kxx < 0))][0]
        raise ValidationError(
            f"fixed-cost condition K(x, x) < 0 fails at x={bad} "
            f"(K={problem.intervention_reward(bad, bad)})")


def load_config(text):
    """Parse, build, and validate a full problem configuration."""
    sections = parse_config_text(text)
    unknown = set(sections) - {"diffusion", "reward", "params", "solver"}
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")

    params = sections.get("params", {})
    for name, value in params.items():
        if not isinstance(value, float):
            raise ConfigError(f"parameter {name!r} must be numeric")

    diff = sections.get("diffusion")
    if diff is None:
        raise ConfigError("missing [diffusion] section")
    reward = sections.get("reward")
    if reward is None:
        raise ConfigError("missing [reward] section")

    drift_text = _require(diff, "drift", "diffusion")
    vol_text = _require(diff, "vol", "diffusion")
    alpha = _require(diff, "alpha", "diffusion")
    for key, val in (("drift", drift_text), ("vol", vol_text)):
        if not isinstance(val, str):
            raise ConfigError(f"[diffusion] {key} must be a quoted expression")

    boundary = diff.get("boundary", NATURAL)
    spec = DiffusionSpec(
        drift=parse_expr(drift_text, ("x",), params),
        vol=parse_expr(vol_text, ("x",), params),
        alpha=_number(alpha, "alpha", "diffusion"),
        lo=_number(diff.get("lo", -math.inf), "lo", "diffusion"),
        hi=_number(diff.get("hi", math.inf), "hi", "diffusion"),
        boundary=str(boundary),
    )

    f_text = _require(reward, "f", "reward")
    k_text = _require(reward, "K", "reward")
    for key, val in (("f", f_text), ("K", k_text)):
        if not isinstance(val, str):
            raise ConfigError(f"[reward] {key} must be a quoted expression")
    direction = reward.get("direction", "down")
    if direction != "down":
        raise ConfigError(
            "only downward impulses (y < x) are supported; "
            f"got direction={direction!r}")

    problem = ImpulseProblem(
        diffusion=spec,
        running_reward=parse_expr(f_text, ("x",), params),
        intervention_reward=parse_expr(k_text, ("x", "y"), params),
        ruin_penalty=_number(diff.get("penalty", 0.0), "penalty", "diffusion"),
    )

    solver_section = dict(sections.get("solver", {}))
    overrides = {}
    for key, value in solver_section.items():
        if key not in _SOLVER_FIELD_TYPES:
            raise ConfigError(f"unknown [solver] option {key!r}")
        overrides[key] = _number(value, key, "solver",
                                 _SOLVER_FIELD_TYPES[key])
    options = SolverOptions(**overrides)

    _validate_problem(problem, options)
    return LoadedConfig(problem=problem, solver=options)


def load_problem(config_text):
    """Spec entry point: build a validated ImpulseProblem from config text."""
    return load_config(config_text).problem
