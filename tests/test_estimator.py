import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbwsim.core import ConfigError
from torbwsim.estimator import (
    DEFAULT_MODEL,
    PAPER_MODEL,
    DomainError,
    InflationModel,
    ResourceQuery,
    inflation_curve,
    load_samples,
    optimize_cluster,
    refit_curve,
    servers_required,
)


# Direct transcriptions of the inflation-curve coefficients, kept separate
# from the implementation on purpose: the paper's published fit, and the
# bound-respecting refit of the same form that the package ships.
PAPER_COEFFICIENTS = (0.75895138, 1.44995314, 0.96837148, 0.03714758, 0.07672455)
SHIPPED_COEFFICIENTS = (0.78416, 1.46793, 0.95784, 0.03589, 0.25942)


def oracle_curve(x: float, coefficients=SHIPPED_COEFFICIENTS) -> float:
    a, scale, exponent, quad, offset = coefficients
    return a * (scale * x) ** exponent - (quad * x) ** 2 - offset


def oracle_servers(x: int, b: float, p: float, d: float,
                   coefficients=SHIPPED_COEFFICIENTS) -> int:
    return math.ceil(
        2.0 * b * (p / 100.0) / (d * oracle_curve(x, coefficients))
    )


GBIT = 1e9 / 8


class TestInflationCurve:
    def test_matches_direct_transcription_everywhere(self):
        for x in range(1, 121):
            assert inflation_curve(x) == pytest.approx(
                oracle_curve(x), abs=1e-12
            )
            assert inflation_curve(x, PAPER_MODEL) == pytest.approx(
                oracle_curve(x, PAPER_COEFFICIENTS), abs=1e-12
            )
            # the shipped refit stays close to the paper's curve
            assert abs(
                oracle_curve(x) - oracle_curve(x, PAPER_COEFFICIENTS)
            ) <= 0.15

    def test_published_anchor_points(self):
        assert inflation_curve(10) == pytest.approx(9.90, abs=0.02)
        assert inflation_curve(30) == pytest.approx(28.0, abs=0.1)
        assert inflation_curve(120) == pytest.approx(92.52, abs=0.5)

    def test_strictly_increasing(self):
        values = [inflation_curve(x) for x in range(1, 121)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_x_one(self):
        # the shipped curve sits below the identity at the low end, where
        # the paper's curve overshoots it; both exact values are pinned so
        # any coefficient drift is caught
        assert inflation_curve(1) == pytest.approx(0.8719054083442239, abs=1e-12)
        assert inflation_curve(1, PAPER_MODEL) == pytest.approx(
            1.0094838266155737, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0, 121, -3, 10.5, "10", True])
    def test_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            inflation_curve(bad)


class TestResourceQuery:
    def test_valid(self):
        q = ResourceQuery(x=109, b=678 * GBIT, p=50, d=100e6)
        assert q.x == 109

    @pytest.mark.parametrize("kwargs", [
        {"x": 0},
        {"x": 121},
        {"p": 0},
        {"p": 101},
        {"b": 0.0},
        {"d": -1.0},
    ])
    def test_invalid(self, kwargs):
        base = dict(x=10, b=1e9, p=50, d=1e8)
        base.update(kwargs)
        with pytest.raises((DomainError, ValueError)):
            ResourceQuery(**base)


class TestServersRequired:
    def test_headline_figures(self):
        q = ResourceQuery(x=109, b=678 * GBIT, p=50, d=100e6)
        assert servers_required(q) == 10
        # the raw requirement sits just under the ceiling
        raw = 2 * 678 * GBIT * 0.5 / (100e6 * oracle_curve(109))
        assert 9 < raw <= 10

    def test_matches_oracle_on_grid(self):
        for x in range(1, 121, 7):
            q = ResourceQuery(x=x, b=678 * GBIT, p=50, d=100e6)
            assert servers_required(q) == oracle_servers(x, 678 * GBIT, 50, 100e6)
            assert servers_required(q, PAPER_MODEL) == oracle_servers(
                x, 678 * GBIT, 50, 100e6, PAPER_COEFFICIENTS
            )

    def test_scales_linearly_in_share(self):
        q10 = ResourceQuery(x=60, b=678 * GBIT, p=10, d=100e6)
        q50 = ResourceQuery(x=60, b=678 * GBIT, p=50, d=100e6)
        assert servers_required(q50) >= servers_required(q10)


class TestOptimizeCluster:
    def test_matches_exhaustive_oracle(self):
        b, p, d = 678 * GBIT, 50, 100e6
        best_x, best_obj = None, None
        for x in range(1, 121):
            obj = x + oracle_servers(x, b, p, d)
            if best_obj is None or obj < best_obj:
                best_x, best_obj = x, obj
        result = optimize_cluster(b=b, p=p, d=d)
        assert result["x"] == best_x
        assert result["objective"] == best_obj
        assert result["servers"] == oracle_servers(best_x, b, p, d)
        assert result["total_relays"] == best_x * result["servers"]

    def test_beats_headline_configuration(self):
        b, p, d = 678 * GBIT, 50, 100e6
        result = optimize_cluster(b=b, p=p, d=d)
        headline = 109 + oracle_servers(109, b, p, d)
        assert result["objective"] <= headline
        assert result["objective"] <= 119

    def test_tie_breaks_to_smallest_x(self):
        b, p, d = 678 * GBIT, 50, 100e6
        result = optimize_cluster(b=b, p=p, d=d)
        smaller = [
            x for x in range(1, result["x"])
            if x + oracle_servers(x, b, p, d) == result["objective"]
        ]
        assert smaller == []


class TestRefit:
    @pytest.mark.parametrize("coefficients", [
        SHIPPED_COEFFICIENTS, PAPER_COEFFICIENTS,
    ], ids=["shipped", "paper"])
    def test_recovers_exact_samples(self, coefficients):
        samples = [(x, oracle_curve(x, coefficients)) for x in range(1, 121, 3)]
        fit = refit_curve(samples)
        assert fit.mse <= 1e-6
        for x in (1, 30, 109):
            assert fit.model.evaluate(x) == pytest.approx(
                oracle_curve(x, coefficients), rel=1e-2
            )

    @settings(max_examples=50, deadline=None)
    @given(
        factors=st.tuples(*[st.floats(0.9, 1.1)] * 4),
        offset=st.floats(-1.0, 1.0),
    )
    def test_recovers_nearby_curves(self, factors, offset):
        # exact samples of a curve near the shipped one; the fit starts at
        # the shipped coefficients and must land on the sampled curve
        coefficients = tuple(
            c * f for c, f in zip(SHIPPED_COEFFICIENTS, factors)
        ) + (offset,)
        xs = range(1, 121)
        fit = refit_curve([(x, oracle_curve(x, coefficients)) for x in xs])
        for x in xs:
            assert fit.model.evaluate(x) == pytest.approx(
                oracle_curve(x, coefficients), abs=1e-6
            )

    @settings(max_examples=50, deadline=None)
    @given(
        factors=st.tuples(*[st.floats(0.8, 1.2)] * 4),
        offset=st.floats(-1.0, 1.0),
    )
    def test_recovers_farther_curves(self, factors, offset):
        # as above over ±20%, where a solve over q can stall at q = 0
        coefficients = tuple(
            c * f for c, f in zip(SHIPPED_COEFFICIENTS, factors)
        ) + (offset,)
        xs = range(1, 121)
        fit = refit_curve([(x, oracle_curve(x, coefficients)) for x in xs])
        for x in xs:
            assert fit.model.evaluate(x) == pytest.approx(
                oracle_curve(x, coefficients), abs=1e-6
            )

    def test_crosses_the_q_saddle(self):
        # the path from the shipped coefficients to this curve passes
        # through q = 0, where a solve over q used to end at MSE 2.06
        coefficients = (0.787, 1.285, 1.141, 0.0321, 0.305)
        xs = range(1, 121)
        fit = refit_curve([(x, oracle_curve(x, coefficients)) for x in xs])
        assert fit.mse <= 1e-6
        assert fit.model.quad == pytest.approx(0.0321, rel=1e-6)
        for x in xs:
            assert fit.model.evaluate(x) == pytest.approx(
                oracle_curve(x, coefficients), abs=1e-6
            )

    def test_upward_curvature_pins_quad_at_zero(self):
        # a +(0.01·x)² term needs q² < 0; the best real fit has q = 0 and
        # matches a bounded least-squares solve of the same form
        from scipy.optimize import least_squares

        a, scale, exponent, _, offset = SHIPPED_COEFFICIENTS
        xs = np.arange(1.0, 121.0)
        ys = a * (scale * xs) ** exponent + (0.01 * xs) ** 2 - offset
        fit = refit_curve(list(zip(xs, ys)))
        assert fit.model.quad == 0.0

        def residuals(p):
            a, scale, exponent, offset = p
            return a * (scale * xs) ** exponent - offset - ys

        best = least_squares(residuals, (a, scale, exponent, offset),
                             bounds=([-np.inf, 1e-6, -np.inf, -np.inf], np.inf),
                             xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert fit.mse == pytest.approx(float(np.mean(best.fun ** 2)),
                                        rel=1e-6)

    def test_improves_on_scaled_target(self):
        samples = [(x, 0.8 * oracle_curve(x)) for x in range(1, 121, 5)]
        start_mse = math.fsum(
            (oracle_curve(x) - y) ** 2 for x, y in samples
        ) / len(samples)
        fit = refit_curve(samples)
        assert fit.mse < start_mse
        assert fit.mse < 0.05

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            refit_curve([(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)])

    def test_underdetermined(self):
        samples = [(5, 4.0)] * 3 + [(9, 8.0)] * 3
        with pytest.raises(ValueError, match="underdetermined"):
            refit_curve(samples)

    def test_nonpositive_x_rejected(self):
        samples = [(x, float(x)) for x in (0, 1, 2, 3, 4)]
        with pytest.raises(ValueError):
            refit_curve(samples)

    @pytest.mark.parametrize("bad", [(5.0, math.nan), (math.inf, 4.0),
                                     (6.0, -math.inf)])
    def test_nonfinite_samples_rejected(self, bad):
        samples = [(x, float(x)) for x in (1, 2, 3, 4)] + [bad]
        with pytest.raises(ValueError, match="finite"):
            refit_curve(samples)


class TestLoadSamples:
    def test_header_comments_and_separators(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x,y\n1,2.5  # first\n\n2 3\n# only a comment\n")
        assert load_samples(str(path)) == [(1.0, 2.5), (2.0, 3.0)]

    @pytest.mark.parametrize("line", ["5,nan", "inf,4", "3,-inf"])
    def test_nonfinite_rejected(self, tmp_path, line):
        path = tmp_path / "samples.csv"
        path.write_text("x,y\n1,2\n%s\n" % line)
        with pytest.raises(ConfigError, match="samples.csv:3: .* finite numbers"):
            load_samples(str(path))


def test_model_evaluate_vectorizes_scalars_only():
    model = InflationModel(*DEFAULT_MODEL.coefficients())
    assert model.evaluate(10) == pytest.approx(inflation_curve(10))
