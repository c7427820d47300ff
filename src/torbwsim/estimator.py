"""Attack-resource arithmetic.

The fitted inflation curve maps a cluster size x (relays per dedicated
server) to the achievable inflation factor. From it: how many dedicated
servers are needed to control a target share of network bandwidth, and the
cheapest (cluster size, server count) combination.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError

# Power-law-minus-quadratic coefficients for the inflation curve. The paper's
# published fit (PAPER_MODEL below) rises above the identity for x <= 7, but
# each of x relays on one server is measured at no more than the server's
# full capacity, so i(x) <= x. These values are a least-squares refit of the
# same functional form to the paper's curve on x = 1..120, constrained to
# i(x) <= x - 1e-4 there. The result is strictly increasing and stays within
# 0.14 of the paper's curve, the largest gap being at x = 1.
CURVE_A = 0.78416
CURVE_SCALE = 1.46793
CURVE_EXPONENT = 0.95784
CURVE_QUAD = 0.03589
CURVE_OFFSET = 0.25942

X_MIN = 1
X_MAX = 120


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class InflationModel:
    a: float = CURVE_A
    scale: float = CURVE_SCALE
    exponent: float = CURVE_EXPONENT
    quad: float = CURVE_QUAD
    offset: float = CURVE_OFFSET

    def evaluate(self, x) -> float:
        return (
            self.a * (self.scale * x) ** self.exponent
            - (self.quad * x) ** 2
            - self.offset
        )

    def coefficients(self) -> tuple:
        return (self.a, self.scale, self.exponent, self.quad, self.offset)


DEFAULT_MODEL = InflationModel()
PAPER_MODEL = InflationModel(0.75895138, 1.44995314, 0.96837148,
                             0.03714758, 0.07672455)


@dataclass(frozen=True)
class ResourceQuery:
    """Inputs for the server-count formula.

    x: relays per dedicated server; b: total network bandwidth (bytes/s);
    p: target controlled-traffic percentage; d: per-server bandwidth (bytes/s).
    """

    x: int
    b: float
    p: float
    d: float

    def __post_init__(self):
        _check_domain(self.x)
        if not 1 <= self.p <= 100:
            raise DomainError("p must be in [1, 100], got %r" % (self.p,))
        if self.b <= 0 or self.d <= 0:
            raise DomainError("bandwidths b and d must be > 0")


def _check_domain(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError("cluster size x must be an integer, got %r" % (x,))
    if not X_MIN <= x <= X_MAX:
        raise DomainError(
            "cluster size x=%d outside the fit domain [%d, %d]" % (x, X_MIN, X_MAX)
        )


def inflation_curve(x: int, model: InflationModel = DEFAULT_MODEL) -> float:
    """Inflation factor for a cluster of x relays sharing one server."""
    _check_domain(x)
    return model.evaluate(x)


def servers_required(q: ResourceQuery, model: InflationModel = DEFAULT_MODEL) -> int:
    """Dedicated servers needed to reach the target traffic share."""
    return math.ceil(
        (2.0 * q.b * (q.p / 100.0)) / (q.d * inflation_curve(q.x, model))
    )


def optimize_cluster(b: float, p: float, d: float) -> dict:
    """Pick the cluster size minimizing relays-per-server plus server count.

    Exhaustive search over the 120-point domain; ties resolve to the
    smallest cluster size.
    """
    best = None
    for x in range(X_MIN, X_MAX + 1):
        s = servers_required(ResourceQuery(x=x, b=b, p=p, d=d))
        objective = x + s
        if best is None or objective < best["objective"]:
            best = {"x": x, "servers": s, "objective": objective,
                    "total_relays": x * s}
    return best


def load_samples(path: str) -> list:
    """(x, y) pairs, one per line, split by a comma or blanks, after an
    optional header row; # starts a comment. Raises ConfigError naming a bad
    line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read samples file: %s" % exc)
    samples = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [float(part) for part in line.replace(",", " ").split()]
        except ValueError:
            if lineno == 1:
                continue  # header row
            values = []
        if len(values) != 2 or not all(map(math.isfinite, values)):
            raise ConfigError(
                "%s:%d: expected 'x,y' pairs of finite numbers" % (path, lineno))
        samples.append(tuple(values))
    return samples


@dataclass(frozen=True)
class FitResult:
    model: InflationModel
    mse: float
    evaluations: int


# Stopping rules of refit_curve's Levenberg-Marquardt solve.
_LM_GAIN_TOLERANCE = 1e-9
_LM_MAX_DAMPING = 1e16
_LM_MAX_EVALUATIONS = 1000


def _levenberg_marquardt(xs, ys, params, free, evaluations):
    """Damped Gauss-Newton over the free entries of (a, s, e, w, o).

    Returns (params, mse, evaluations) at the last kept step.
    """
    def residuals(p):
        a, scale, exponent, quad_sq, offset = p
        return a * (scale * xs) ** exponent - quad_sq * xs * xs - offset - ys

    resid = residuals(params)
    mse = float(np.mean(resid * resid))
    evaluations, damping = evaluations + 1, 1e-3
    while mse > 0.0 and evaluations < _LM_MAX_EVALUATIONS:
        a, scale, exponent, _, _ = params
        power = (scale * xs) ** exponent
        jac = np.column_stack((
            power,
            a * exponent * power / scale,
            a * power * np.log(scale * xs),
            -xs * xs,
            -np.ones_like(xs),
        ))[:, free]
        jtj = jac.T @ jac
        trial = params.copy()
        trial[free] += np.linalg.solve(
            jtj + damping * np.diag(np.diag(jtj)), -(jac.T @ resid)
        )
        trial_resid = residuals(trial)
        trial_mse = float(np.mean(trial_resid * trial_resid))
        evaluations += 1
        if trial_mse < mse:
            gain = (mse - trial_mse) / mse
            params, resid, mse = trial, trial_resid, trial_mse
            if gain < _LM_GAIN_TOLERANCE:
                break
            damping /= 10.0
        else:
            damping *= 10.0
            if damping > _LM_MAX_DAMPING:
                break
    return params, mse, evaluations


def refit_curve(samples) -> FitResult:
    """Least-squares refit of the inflation-curve functional form.

    Levenberg-Marquardt from the shipped coefficients (`DEFAULT_MODEL`):
    each step solves (JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr, with r the residuals
    and J their analytic Jacobian, and is kept only if it lowers the mean
    squared error. λ shrinks tenfold after a kept step and grows tenfold
    after a rejected one. a and s enter the model only through a·sᵉ, so
    JᵀJ is singular; Marquardt's diagonal damping keeps the system
    solvable. The solve stops when a kept step lowers the error by less
    than _LM_GAIN_TOLERANCE of it, when λ exceeds _LM_MAX_DAMPING, or after
    _LM_MAX_EVALUATIONS residual evaluations, which `evaluations` counts.

    The solve runs over w = q² in place of q. (q·x)² is symmetric in q, so
    q = 0 is a saddle where the q column of J vanishes; the w column, −x²,
    never does. w may go negative on the way. If the solve ends there, no
    real q fits, so w is pinned at 0 and the other four are solved again.
    """
    if len(samples) < 5:
        raise ValueError("need at least 5 samples to refit, got %d" % len(samples))
    xs = np.array([float(x) for x, _ in samples])
    ys = np.array([float(y) for _, y in samples])
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("sample x and y values must be finite")
    if len(set(xs.tolist())) < 3:
        raise ValueError("underdetermined fit: samples span fewer than 3 x values")
    if np.any(xs <= 0):
        raise ValueError("sample x values must be positive")

    a, scale, exponent, quad, offset = DEFAULT_MODEL.coefficients()
    params = np.array((a, scale, exponent, quad * quad, offset))
    params, mse, evaluations = _levenberg_marquardt(
        xs, ys, params, [0, 1, 2, 3, 4], 0
    )
    if params[3] < 0.0:
        params[3] = 0.0
        params, mse, evaluations = _levenberg_marquardt(
            xs, ys, params, [0, 1, 2, 4], evaluations
        )
    a, scale, exponent, quad_sq, offset = (float(v) for v in params)
    model = InflationModel(a, scale, exponent, math.sqrt(quad_sq), offset)
    return FitResult(model=model, mse=mse, evaluations=evaluations)
