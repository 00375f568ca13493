"""Verification campaigns: support map, determinism, JSON shape."""

import math

import pytest

from ccplane import verify
from ccplane.errors import DomainError
from ccplane.kernel import Geometry
from ccplane.verify import (
    SUPPORTED,
    THEOREMS,
    VerifyReport,
    default_tolerance,
    json_document,
    report_record,
    run_verification,
)

HYP = Geometry.HYPERBOLIC
SPH = Geometry.SPHERICAL
EUC = Geometry.EUCLIDEAN


class TestSupportMap:
    def test_every_theorem_listed(self):
        assert set(SUPPORTED) == set(THEOREMS)

    def test_lexell_is_hyperbolic_only(self):
        assert SUPPORTED["lexell"] == (HYP,)
        with pytest.raises(DomainError):
            run_verification("lexell", SPH, trials=1)

    def test_every_theorem_but_lexell_on_every_plane(self):
        for theorem in THEOREMS:
            if theorem != "lexell":
                assert SUPPORTED[theorem] == tuple(Geometry)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(DomainError):
            run_verification("pythagoras", HYP, trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            run_verification("ceva", HYP, trials=0)


class TestTolerance:
    def test_defaults(self):
        assert default_tolerance("lambert", EUC) == 1e-12
        assert default_tolerance("lambert", HYP) == 1e-9
        assert default_tolerance("lexell", HYP) == 1e-8
        assert default_tolerance("menelaus", SPH) == 1e-9

    def test_override_can_force_failure(self):
        rep = run_verification("ceva", HYP, trials=10, seed=1, tolerance=1e-30)
        assert not rep.passed
        assert rep.tolerance == 1e-30


class TestCampaigns:
    @pytest.mark.parametrize(
        "theorem,geometry",
        [(t, g) for t in THEOREMS for g in SUPPORTED[t]],
    )
    def test_short_campaign_passes(self, theorem, geometry):
        rep = run_verification(theorem, geometry, trials=20, seed=7)
        assert rep.passed
        assert rep.max_residual <= rep.tolerance
        assert rep.trials == 20

    def test_same_seed_reproduces_exactly(self):
        a = run_verification("euler-ratio", HYP, trials=30, seed=11)
        b = run_verification("euler-ratio", HYP, trials=30, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_verification("euler-ratio", HYP, trials=30, seed=11)
        b = run_verification("euler-ratio", HYP, trials=30, seed=12)
        assert a.max_residual != b.max_residual

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_residual_fails_the_campaign(self, monkeypatch, bad):
        # One bad trial among good ones: the fold must not drop it, as
        # max(0.0, nan) == 0.0 would.
        residuals = iter([1e-15, bad, 1e-15])
        monkeypatch.setitem(verify._TRIALS, "ceva", lambda geometry, rng: next(residuals))
        rep = run_verification("ceva", HYP, trials=3)
        assert rep.max_residual == math.inf
        assert not rep.passed

    def test_all_nan_campaign_fails(self, monkeypatch):
        monkeypatch.setitem(verify._TRIALS, "ceva", lambda geometry, rng: math.nan)
        rep = run_verification("ceva", HYP, trials=5)
        assert rep.max_residual == math.inf
        assert not rep.passed


class TestJson:
    def test_record_is_flat_with_units(self):
        rep = run_verification("menelaus", HYP, trials=5, seed=2)
        rec = report_record(rep)
        assert rec["units"] == "model-units"
        assert rec["angle_units"] == "radians"
        assert all(not isinstance(v, dict) for v in rec.values())

    def test_document_is_deterministic_and_sorted(self):
        rep = run_verification("menelaus", HYP, trials=5, seed=2)
        doc = json_document(report_record(rep))
        assert doc == json_document(report_record(rep))
        keys = list(report_record(rep))
        assert doc.index('"geometry"') < doc.index('"theorem"')
        assert doc.endswith("\n")
        assert set(keys) == set(report_record(rep))

    def test_floats_carry_seventeen_digits(self):
        doc = json_document({"x": 0.1})
        assert '"x": 0.10000000000000001' in doc

    def test_round_trip_through_stdlib_parser(self):
        import json

        rep = run_verification("ceva", SPH, trials=5, seed=9)
        parsed = json.loads(json_document(report_record(rep)))
        assert parsed["max_residual"] == rep.max_residual
        assert parsed["passed"] is rep.passed

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            json_document({"x": math.inf})

    def test_nested_lists_allowed(self):
        assert json_document({"v": [1, 2.5]}) == '{"v": [1, 2.5]}\n'


class TestReportInvariant:
    def test_pass_flag_matches_comparison(self):
        rep = VerifyReport("ceva", HYP, 1, 0, 1e-9, 5e-10, True)
        assert rep.passed == (rep.max_residual <= rep.tolerance)
