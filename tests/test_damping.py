from dataclasses import replace

import numpy as np
import pytest

from lyapcert import damping
from lyapcert.errors import DomainError

ALL_BOUNDED = [damping.linear(), damping.norm_saturation(1.0), damping.clamp(1.0),
               damping.tanh_saturation(1.0), damping.arctan_saturation(1.0)]
CATALOGUE = ALL_BOUNDED + [damping.weak_damping(1.0, 0.5)]


def spec_id(value):
    """A short test id: a spec's rule and sector constants, else the value."""
    if isinstance(value, damping.DampingSpec):
        return f"{value.scalar_rule or value.kind}-s0={value.s0}-C1={value.C1}-C2={value.C2}"
    return repr(value)


def sampled_items(spec, dim, trials, seed):
    """Oracle for verify_definition's exact items: the largest sampled
    Lipschitz ratio on balls of radius 0.1, 1 and 10, the least sampled
    pairing <sigma(a) - sigma(b), a - b> over pairs at scales 1e-3 to 1e2, and
    the least sampled normalized sector margin
    C2 h(||s||_S) - ||sigma(s) - C1 s||_S' / <sigma(s), s> at scales 1e-8 to
    1e8, in the sup norm with the l1 dual for the componentwise kinds and weak
    damping, both Euclidean otherwise."""
    rng = np.random.default_rng(seed)
    ratios = []
    for radius in (0.1, 1.0, 10.0):
        S1 = rng.uniform(-radius, radius, size=(trials // 3 + 1, dim))
        S2 = S1 + rng.uniform(-0.1 * radius, 0.1 * radius, size=S1.shape)
        d = np.linalg.norm(S1 - S2, axis=1)
        num = np.linalg.norm(spec.apply(S1) - spec.apply(S2), axis=1)
        ratios.append(np.max(num[d > 1e-14] / d[d > 1e-14]))
    scales = 10.0 ** rng.uniform(-3, 2, size=(trials, 1))
    S1 = scales * rng.standard_normal((trials, dim))
    S2 = scales * rng.standard_normal((trials, dim))
    pairing = np.sum((spec.apply(S1) - spec.apply(S2)) * (S1 - S2), axis=1)
    S = 10.0 ** rng.uniform(-8, 8, size=(trials, 1)) * rng.standard_normal((trials, dim))
    on_sup = spec.kind in ("componentwise_saturation", "weak_damping")
    s_norms = np.max(np.abs(S), axis=1) if on_sup else np.linalg.norm(S, axis=1)
    sig = spec.apply(S)
    diff = sig - spec.C1 * S
    lhs = np.sum(np.abs(diff), axis=1) if on_sup else np.linalg.norm(diff, axis=1)
    h_vals = np.array([spec.h_eval(x) for x in s_norms])
    sector = spec.C2 * h_vals - lhs / np.sum(sig * S, axis=1)
    return float(max(ratios)), float(np.min(pairing)), float(np.min(sector))


class TestApply:
    def test_norm_saturation_branches(self):
        ns = damping.norm_saturation(1.0)
        assert np.allclose(ns.apply([0.3, 0.4]), [0.3, 0.4])     # inside the ball
        assert np.allclose(ns.apply([3.0, 4.0]), [0.6, 0.8])     # rescaled, ||s|| = 5

    def test_zero_maps_to_zero(self):
        for spec in ALL_BOUNDED + [damping.weak_damping(1.0, 0.5)]:
            assert np.allclose(spec.apply(np.zeros(3)), 0.0)

    def test_odd_symmetry_exact(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(6) * 10
        for spec in ALL_BOUNDED + [damping.weak_damping(2.0, 0.3)]:
            assert np.array_equal(spec.apply(-s), -spec.apply(s))

    def test_norm_saturation_output_norm(self):
        ns = damping.norm_saturation(2.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = rng.standard_normal(4) * 10 ** rng.uniform(-2, 2)
            out = np.linalg.norm(ns.apply(s))
            assert abs(out - min(np.linalg.norm(s), 2.0)) <= 1e-12 * max(1.0, out)

    def test_weak_damping_entrywise(self):
        wd = damping.weak_damping(c=2.0, q=0.5)
        assert np.allclose(wd.apply([4.0, -9.0]), [4.0, -6.0])


    @pytest.mark.parametrize("spec", ALL_BOUNDED + [damping.norm_saturation(0.4),
                                                    damping.weak_damping(2.0, 0.3)])
    def test_block_matches_rows(self, spec):
        # one (trials, dim) call equals the vector calls row by row, weighted or not
        rng = np.random.default_rng(2)
        S = rng.standard_normal((60, 5)) * 10.0 ** rng.uniform(-2, 1, size=(60, 1))
        for w in (None, rng.uniform(0.1, 3.0, 5)):
            rows = np.array([spec.apply(s, w) for s in S])
            np.testing.assert_allclose(spec.apply(S, w), rows, rtol=1e-15, atol=0)


class TestJacobian:
    @staticmethod
    def central_differences(spec, s, w, eps=1e-6):
        """J[i, j] = d sigma_i / d s_j by central differences of apply."""
        E = eps * np.eye(len(s))
        return np.stack([(spec.apply(s + e, w) - spec.apply(s - e, w)) / (2 * eps)
                         for e in E], axis=-1)

    @pytest.mark.parametrize("spec", [d for d in ALL_BOUNDED if d.kind != "norm_saturation"]
                             + [damping.clamp(0.7), damping.arctan_saturation(2.5)])
    def test_diagonal_matches_central_differences(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-3.0, 3.0, 4)
            if np.min(np.abs(np.abs(s) - spec.s0)) < 1e-3:
                continue                    # away from the clamp's kinks
            D = spec.jacobian(s)
            assert D.shape == s.shape
            np.testing.assert_allclose(np.diag(D), self.central_differences(spec, s, None),
                                       rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("s", [[0.1, -0.2, 0.3], [2.0, -1.0, 3.0], [-5.0, 0.5, 0.0]])
    def test_norm_saturation_matrix_matches_central_differences(self, s):
        spec, w = damping.norm_saturation(1.5), np.array([0.5, 2.0, 1.3])
        s = np.array(s)
        J = spec.jacobian(s, w)
        assert J.shape == (3, 3)
        np.testing.assert_allclose(J, self.central_differences(spec, s, w),
                                   rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("spec", ALL_BOUNDED)
    def test_block_matches_rows(self, spec):
        rng = np.random.default_rng(6)
        S, w = rng.standard_normal((30, 3)) * 3.0, rng.uniform(0.1, 3.0, 3)
        rows = np.array([spec.jacobian(s, w) for s in S])
        assert np.array_equal(spec.jacobian(S, w), rows)
        assert spec.jacobian(S, w).ndim == S.ndim + (spec.kind == "norm_saturation")

    def test_weak_damping_has_none(self):
        with pytest.raises(DomainError):
            damping.weak_damping(1.0, 0.5).jacobian([1.0, -2.0])


class TestParameters:
    @pytest.mark.parametrize("build", [
        lambda x: damping.clamp(x), lambda x: damping.norm_saturation(x),
        lambda x: damping.tanh_saturation(x), lambda x: damping.arctan_saturation(x),
        lambda x: damping.DampingSpec(kind="linear", C1=x),
        lambda x: damping.DampingSpec(kind="linear", C2=x),
        lambda x: damping.DampingSpec(kind="componentwise_saturation",
                                      scalar_rule="clamp", s0=x),
        lambda x: damping.DampingSpec(kind="weak_damping", c=x)])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -1.0])
    def test_negative_or_non_finite_rejected(self, build, x):
        with pytest.raises(ValueError):
            build(x)

    @pytest.mark.parametrize("kwargs, message", [
        ({"C1": 0.0}, "C1 must be positive and finite, got 0.0"),
        ({"C2": np.inf}, "C2 must be positive and finite, got inf"),
        ({"C1": -1.0, "C2": np.nan}, "C1 must be positive and finite, got -1.0"),
        ({"kind": "norm_saturation", "s0": np.nan}, "s0 must be positive and finite, got nan")])
    def test_message_names_the_constant(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            damping.DampingSpec(**{"kind": "linear", **kwargs})
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, rule", [
        ("linear", "clamp"), ("norm_saturation", "tanh"), ("weak_damping", "arctan"),
        ("componentwise_saturation", "sine"), ("componentwise_saturation", "")])
    def test_scalar_rule_only_on_componentwise_saturation(self, kind, rule):
        # the integrator reads the rule as scalar_rule or kind, apply by kind:
        # one spec must name one rule to both
        with pytest.raises(ValueError) as exc:
            damping.DampingSpec(kind=kind, scalar_rule=rule)
        assert repr(kind) in str(exc.value) and repr(rule) in str(exc.value)

    @pytest.mark.parametrize("build", [
        lambda: damping.weak_damping(c=0.0),
        lambda: damping.DampingSpec(kind="weak_damping", c=0.0, C1=1.0)])
    def test_weak_damping_gain_positive(self, build):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "c must be positive and finite, got 0.0"


class TestH:
    def test_saturations_have_unit_h(self):
        assert damping.tanh_saturation(1.0).h_eval(7.3) == 1.0

    def test_weak_damping_power(self):
        wd = damping.weak_damping(1.0, 0.5)
        assert abs(wd.h_eval(4.0) - 0.5) < 1e-15

    def test_h_positive_at_zero(self):
        for spec in ALL_BOUNDED:
            assert spec.h_eval(0.0) == 1.0 > 0

    def test_weak_damping_singular_at_zero(self):
        with pytest.raises(DomainError):
            damping.weak_damping(1.0, 0.5).h_eval(0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            damping.clamp(1.0).h_eval(-1.0)

    def test_h_nondecreasing_for_bounded_kinds(self):
        grid = np.linspace(0.0, 50.0, 101)
        for spec in ALL_BOUNDED:
            vals = [spec.h_eval(x) for x in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestKIntegral:
    def test_constant_h_closed_form(self):
        cl = damping.clamp(1.0)
        assert abs(cl.k_integral(4.0) - 16.0 / 3.0) < 1e-14
        assert cl.k_integral(0.0) == 0.0
        with pytest.raises(DomainError):
            cl.k_integral(-1.0)

    def test_weak_damping_refused(self):
        # weak damping fails the sector inequality, so no certificate has K
        wd = damping.weak_damping(1.0, 0.5)
        for X in (1.0, np.array([[0.0, 0.5], [2.0, 7.0]])):
            with pytest.raises(DomainError, match="sector inequality"):
                wd.k_integral(X)

    def test_strictly_increasing(self):
        cl = damping.tanh_saturation(2.0)
        grid = np.linspace(0.0, 9.0, 40)
        vals = [cl.k_integral(x) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_array_matches_scalars(self):
        X = np.array([[0.0, 0.5], [2.0, 7.0]])
        spec = damping.clamp(1.0)
        K = spec.k_integral(X)
        assert K.shape == X.shape
        assert np.array_equal(K, [[spec.k_integral(x) for x in row] for row in X])


class TestVerifyDefinition:
    def test_linear_passes_everything(self):
        rep = damping.verify_definition(damping.linear())
        assert rep.item1_pass and rep.item2_pass and rep.item3_pass
        assert rep.sector_margin >= 0.0       # sigma - C1 s vanishes identically

    def test_clamp_scalar_inequality(self):
        rep = damping.verify_definition(damping.clamp(1.0))
        assert rep.item3_pass and rep.sector_margin >= -1e-12

    def test_monotonicity_ten_thousand_pairs(self):
        for spec in ALL_BOUNDED:
            _, pairing, _ = sampled_items(spec, dim=4, trials=10000, seed=2)
            assert pairing >= -1e-12

    @pytest.mark.parametrize("dim", [1, 4, 64])
    @pytest.mark.parametrize("spec", CATALOGUE + [pytest.param(spec, id=spec_id(spec)) for spec in (
        damping.clamp(2.5), damping.norm_saturation(0.4), replace(damping.clamp(), C1=0.5, C2=2.0),
        replace(damping.clamp(), C2=0.99))], ids=lambda spec: spec.scalar_rule or spec.kind)
    def test_exact_items_bound_the_sampled_oracle(self, spec, dim):
        rep = damping.verify_definition(spec)
        ratio, pairing, sector = sampled_items(spec, dim=dim, trials=2000, seed=7)
        assert ratio <= rep.lipschitz_constant
        assert pairing >= rep.monotonicity_min - 1e-12
        assert sector >= rep.sector_margin - 1e-12
        if np.isfinite(rep.sector_margin):      # the samples come within reach of m
            assert sector <= rep.sector_margin + 1e-6

    def test_every_rule_but_weak_damping_is_1_lipschitz_and_monotone(self):
        for spec in ALL_BOUNDED + [damping.norm_saturation(0.4), damping.clamp(2.5)]:
            rep = damping.verify_definition(spec)
            assert rep.rows()[:2] == [("lipschitz_max_ratio", 1.0, True),
                                      ("monotonicity_min", 0.0, True)]

    def test_weak_damping_has_no_lipschitz_constant(self):
        rep = damping.verify_definition(damping.weak_damping(1.0, 0.5))
        assert rep.rows()[:2] == [("lipschitz_max_ratio", np.inf, False),
                                  ("monotonicity_min", 0.0, True)]
        assert "item 1 (locally Lipschitz) constant: inf -> FAIL" in rep.text_block()

    @pytest.mark.parametrize("spec, margin", [
        (damping.linear(), 1.0), (damping.norm_saturation(1.0), 0.0), (damping.clamp(1.0), 0.0),
        (damping.tanh_saturation(1.0), 0.0), (damping.arctan_saturation(1.0), 0.0),
        (damping.weak_damping(1.0, 0.5), -np.inf), (damping.weak_damping(3.0, 0.2), -np.inf),
        (replace(damping.linear(), C2=2.5), 2.5), (replace(damping.tanh_saturation(2.0), C2=1.0), 0.5),
        (replace(damping.clamp(), C2=0.999), -0.0010000000000000009),
        (replace(damping.clamp(), C1=1.0000001), -np.inf),
        (replace(damping.norm_saturation(), C1=0.999999), -np.inf),
        (replace(damping.linear(), C1=0.5, C2=2.0), -np.inf)], ids=spec_id)
    def test_sector_margin_closed_form(self, spec, margin):
        # C2 - 1/s0 for a saturation (C2 for linear damping) where C1 = sigma'(0),
        # else -inf; the same row in every dimension
        rep = damping.verify_definition(spec)
        assert rep.rows()[2] == ("sector_margin_min", margin, margin >= 0.0)

    def test_draws_no_random_number(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_definition drew a random number")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for spec in CATALOGUE:
            assert len(damping.verify_definition(spec).rows()) == 3

    def test_weak_damping_flags_singularity(self):
        wd = damping.weak_damping(1.0, 0.5)
        rep = damping.verify_definition(wd)
        assert any("unbounded" in f for f in rep.flags)

    def test_weak_damping_scalar_scan(self):
        # brute-force scan of the sector inequality over a log grid of s:
        # margins are computed only away from zero and h matches |s|^(q-1)
        wd = damping.weak_damping(1.0, 0.5)
        grid = np.logspace(-6, 2, 200)
        for x in grid:
            assert abs(wd.h_eval(x) - x ** (-0.5)) <= 1e-12 * x ** (-0.5)
        # the scalar inequality |x^q - x| <= C2 x^{2q} fails near zero, which is
        # exactly what the report must surface rather than hide
        lhs = np.abs(grid**0.5 - grid)
        rhs_coeff = lhs / grid ** 1.0        # needed C2 at each sample (2q = 1)
        assert rhs_coeff.max() > 1.0         # no uniform C2 = 1 on the log grid

    def test_report_rows_shape(self):
        rep = damping.verify_definition(damping.clamp(1.0))
        rows = rep.rows()
        assert [r[0] for r in rows] == ["lipschitz_max_ratio", "monotonicity_min",
                                        "sector_margin_min"]
        assert all(isinstance(r[2], bool) for r in rows)


class TestCatalogueValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            damping.DampingSpec(kind="dry_friction")

    def test_bad_saturation_level(self):
        with pytest.raises(ValueError):
            damping.clamp(0.0)

    @pytest.mark.parametrize("build", [damping.norm_saturation, damping.clamp,
                                       damping.tanh_saturation, damping.arctan_saturation])
    def test_zero_level_checked_before_C2(self, build):
        with pytest.raises(ValueError, match="s0 must be positive and finite"):
            build(0.0)

    def test_config_kinds_are_the_table(self):
        from lyapcert.config import DAMPING_KINDS
        assert DAMPING_KINDS == tuple(damping.BY_NAME) == (
            "linear", "norm_saturation", "clamp", "tanh", "arctan", "weak")

    def test_bad_weak_exponent(self):
        with pytest.raises(ValueError):
            damping.weak_damping(1.0, 1.5)
