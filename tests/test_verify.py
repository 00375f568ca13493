"""Verification campaigns: support map, determinism, JSON shape."""

import math
import sys
from pathlib import Path

import pytest

from ccplane import cevians, corevec, verify
from ccplane.cli import json_document
from ccplane.errors import DomainError
from ccplane.kernel import Geometry, substream
from ccplane.verify import (
    SUPPORTED,
    THEOREMS,
    VerifyReport,
    default_tolerance,
    report_record,
    run_verification,
)

HYP = Geometry.HYPERBOLIC
SPH = Geometry.SPHERICAL
EUC = Geometry.EUCLIDEAN


def _calls(fn, *args) -> list:
    """What fn(*args) calls, in order, under a profile hook: the code
    object of each Python function it enters and each builtin itself."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)
        elif event == "c_call":
            calls.append(arg)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


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

    def test_unhashable_theorem_rejected(self):
        with pytest.raises(DomainError, match="unknown theorem"):
            run_verification(["ceva"], HYP, trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            run_verification("ceva", HYP, trials=0)

    def test_geometry_name_rejected(self):
        # Geometry is a str enum, so "hyperbolic" is in SUPPORTED["ceva"].
        with pytest.raises(DomainError, match="not a Geometry member"):
            run_verification("ceva", "hyperbolic", trials=1)

    @pytest.mark.parametrize(
        "trials,seed", [(2.0, 0), (True, 0), (1, True), (1, 0.0), (1, "0")],
        ids=["float-trials", "bool-trials", "bool-seed", "float-seed", "str-seed"],
    )
    def test_trials_and_seed_must_be_ints(self, trials, seed):
        # A bool is an int, but the report would print it as true.
        with pytest.raises(DomainError, match="trials and seed must be ints"):
            run_verification("ceva", HYP, trials=trials, seed=seed)

    @pytest.mark.parametrize("tolerance", [True, "1e-9"])
    def test_tolerance_must_be_a_number(self, tolerance):
        with pytest.raises(DomainError, match="tolerance must be positive and finite"):
            run_verification("ceva", HYP, trials=1, tolerance=tolerance)


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

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -0.5])
    def test_tolerance_outside_the_cli_range_rejected(self, tolerance):
        # The range ``--tolerance`` accepts: a NaN gate no campaign passes,
        # an inf gate every finite residual passes (and neither writes as
        # JSON), and a gate at or below zero every campaign fails.
        with pytest.raises(DomainError, match="tolerance must be positive and finite"):
            run_verification("ceva", HYP, trials=1, tolerance=tolerance)


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

    @pytest.mark.parametrize(
        "theorem,geometry",
        [(t, g) for t in THEOREMS for g in SUPPORTED[t]],
    )
    def test_a_trial_redrawn_by_index_measures_the_same(self, theorem, geometry):
        # The stage boundary: trial i's figure is drawn from its own
        # substream, and measuring it draws nothing, so measuring it again
        # gives the same residual, and the worst of them is the report's.
        trials, seed = 12, 5
        draw, measure = verify._CAMPAIGNS[theorem]()
        label = f"verify-{theorem}-{geometry.value}"
        residuals = []
        for i in range(trials):
            figure = draw(geometry, substream(label, seed, i))
            residuals.append(measure(*figure))
            assert measure(*figure) == residuals[-1]
        rep = run_verification(theorem, geometry, trials, seed)
        assert max(residuals) == rep.max_residual

    @pytest.mark.parametrize("geometry", list(Geometry))
    @pytest.mark.parametrize("theorem", ["euler-ratio", "ceva", "pqr"])
    def test_a_frame_trial_enters_no_generator_or_comprehension(self, theorem, geometry):
        # A generator's frame is entered once per item it yields, and a
        # comprehension is a function call of its own: on a per-trial path
        # both cost more than the statements they stand for.  One trial is
        # the campaign's draw, then its measure.
        src = str(Path(cevians.__file__).parent)
        kinds = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}
        draw, measure = verify._CAMPAIGNS[theorem]()
        rng = substream(f"verify-{theorem}-{geometry.value}", 0, 0)
        entered = [
            f"{Path(code.co_filename).name}:{code.co_firstlineno} {code.co_name}"
            for code in _calls(lambda: measure(*draw(geometry, rng)))
            if getattr(code, "co_name", None) in kinds and code.co_filename.startswith(src)
        ]
        assert entered == []

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_a_frame_draw_calls_no_max_or_min(self, geometry):
        # The sampler folds its three cosines and its three sides by max's
        # and min's own rules inline, with no builtin call per draw.  The
        # frame campaigns share this draw.
        draw, _ = verify._CAMPAIGNS["euler-ratio"]()
        for i in range(5):
            rng = substream(f"verify-euler-ratio-{geometry.value}", 0, i)
            calls = _calls(draw, geometry, rng)
            assert [f for f in calls if f is max or f is min] == []

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_cevian_frame_calls_no_max(self, geometry):
        # The stretch ratio's range check tests both lengths, not their max.
        draw, _ = verify._CAMPAIGNS["euler-ratio"]()
        tri, o = draw(geometry, substream("cevian-frame-max", 0, 0))
        assert [f for f in _calls(cevians.cevian_frame, tri, o) if f is max] == []

    def test_a_sphere_draw_enters_no_corevec_function(self):
        # SphereModel.polar writes out the exponential map at the pole and
        # returns through project, with no vector kernel on the way.
        draw, _ = verify._CAMPAIGNS["euler-ratio"]()
        for i in range(5):
            rng = substream("verify-euler-ratio-spherical", 0, i)
            entered = [
                code.co_name for code in _calls(draw, SPH, rng)
                if getattr(code, "co_filename", None) == corevec.__file__
            ]
            assert entered == []

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
        campaign = lambda: (lambda geometry, rng: (next(residuals),), lambda r: r)
        monkeypatch.setitem(verify._CAMPAIGNS, "ceva", campaign)
        rep = run_verification("ceva", HYP, trials=3)
        assert rep.max_residual == math.inf
        assert not rep.passed

    def test_campaign_calls_a_layer_function_patched_after_import(self, monkeypatch):
        # A campaign binds its theorem's functions when it starts, so a
        # function replaced between campaigns (a test double, perfbench's
        # tracer) serves every trial of the next one.
        expected = run_verification("ceva", HYP, trials=7, seed=3)
        calls = []
        original = cevians.ceva_product

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(cevians, "ceva_product", counting)
        assert run_verification("ceva", HYP, trials=7, seed=3) == expected
        assert len(calls) == 7

    def test_all_nan_campaign_fails(self, monkeypatch):
        campaign = lambda: (lambda geometry, rng: (), lambda: math.nan)
        monkeypatch.setitem(verify._CAMPAIGNS, "ceva", campaign)
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
