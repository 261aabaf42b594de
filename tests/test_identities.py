"""Identity catalog coverage, runner determinism, and report shape."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import lucascalc.identities
from lucascalc import (
    CATALOG,
    Backend,
    GaussianRational,
    NoRootFound,
    SeriesDiverging,
    TruncatedSeries,
    TruncatedSeries2,
    UnknownIdentityId,
    make_params,
    promote_series,
    run_suite,
)
from lucascalc.identities import _compare, _identity, _pi_root, _Reject, _resolve

SAMPLER_BACKENDS = {
    "rational-roots": Backend.RATIONAL,
    "gaussian": Backend.GAUSSIAN,
    "float": Backend.COMPLEX,
}

# every id the suite must expose, one entry per catalogued statement
REQUIRED_IDS = [
    "pascal-1", "pascal-2",
    "binom-neg-even", "binom-neg-odd",
    *[f"binom-props-{i}" for i in range(1, 6)],
    *[f"binom-derivative-{i}" for i in range(1, 4)],
    "exp-pantograph-ode", "exp-dk", "exp-product",
    "exp-recip-pair", "exp-recip-general",
    "exp-binom-deriv-1", "exp-binom-deriv-2", "exp-binom-int-1", "exp-binom-int-2",
    "exp-alpha-beta-functional", "exp-alpha-beta-integral",
    "exp-multinomial-product",
    "euler-i", "euler-neg",
    "exp-x-plus-iy-1", "exp-x-plus-iy-2",
    "parity-6",
    "exp-binom-neg-uv",
    "rep-sin", "rep-cos",
    "add-sin-plus", "add-sin-minus", "add-cos-plus", "add-cos-minus",
    "add-tan-plus", "add-tan-minus",
    "coro4-1", "coro4-2",
    "pytha-1", "pytha-2", "pytha-3",
    "tilde-pytha-1", "tilde-pytha-2", "tilde-pytha-3",
    *[f"double-angle-{i}" for i in range(1, 7)],
    "multi-euler",
    *[f"multi-add-n1-{i}" for i in range(1, 5)],
    *[f"multi-add-nm-{i}" for i in range(1, 5)],
    "piu-special-1", "piu-special-2", "piu-special-3",
    *[f"periodic-{i}" for i in range(1, 5)],
    *[f"hyp-bridge-{i}" for i in range(1, 7)],
    "hyp-binom-bridge-1", "hyp-binom-bridge-2",
    *[f"hyp-add-{i}" for i in range(1, 5)],
    "tanh-add-1", "tanh-add-2",
    "calc-product-rule-1", "calc-product-rule-2",
    "calc-quotient-rule-1", "calc-quotient-rule-2",
    "calc-fundamental", "calc-parts",
]


def _stripped(report) -> str:
    data = report.to_dict()
    data.pop("wall_time_s")
    for result in data["results"]:
        result.pop("wall_time_s")
    return json.dumps(data, sort_keys=True)


class TestCatalog:
    def test_every_required_id_present(self):
        missing = [identity for identity in REQUIRED_IDS if identity not in CATALOG]
        assert not missing, f"missing catalog entries: {missing}"

    def test_ids_unique_and_anchored(self):
        assert len(CATALOG) == len({r.id for r in CATALOG.values()})
        for record in CATALOG.values():
            assert record.anchor.strip()
            assert record.check_kind in ("series-exact", "bivariate-exact", "numeric-residual")
            assert record.sampler in ("rational-roots", "gaussian", "float")

    def test_numeric_records_carry_tolerances(self):
        for record in CATALOG.values():
            if record.check_kind == "numeric-residual":
                assert record.tolerance is not None and record.tolerance > 0
            else:
                assert record.tolerance is None


class TestRunner:
    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityId):
            run_suite("nosuch", trials=1)
        with pytest.raises(UnknownIdentityId):
            run_suite([], trials=1)

    def test_trials_below_one_rejected(self):
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials"):
                run_suite("pascal-1", trials=trials)

    def test_single_id_and_group_selection(self):
        by_id = run_suite("pascal-1", trials=2, seed=1)
        assert [r.id for r in by_id.results] == ["pascal-1"]
        assert by_id.all_passed
        by_group = run_suite("pytha", trials=2, seed=1)
        assert {r.id for r in by_group.results} == {"pytha-1", "pytha-2", "pytha-3"}

    def test_determinism(self):
        a = run_suite(["pascal", "euler", "add-tan", "calc-fundamental"], trials=4, seed=99)
        b = run_suite(["pascal", "euler", "add-tan", "calc-fundamental"], trials=4, seed=99)
        assert _stripped(a) == _stripped(b)

    def test_report_counts(self):
        report = run_suite("euler", trials=3, seed=7)
        for result in report.results:
            assert result.trials == 3
            assert result.seed == 7
            assert result.status == "pass"
            assert result.failures == []

    def test_smoke_full_catalog_small(self):
        report = run_suite("all", trials=2, order=10, seed=5)
        failed = [r.id for r in report.results if r.status != "pass"]
        assert not failed, f"failing identities: {failed}"


# sha256 of the stripped reports, frozen before the catalog became declarative:
# every record must draw the same variables and reach the same verdicts.
GOLDEN = {
    (16, 7): "86beebec20897c2b881866d2eec52697305f2cb7c4275a9ca5dc99234aed7f50",
    (24, 2024): "7eab737cc4edd20f0a1a881379052f5a325b6d247706969e8c48f95fff5e894a",
}


@pytest.mark.parametrize("order, seed", sorted(GOLDEN))
def test_golden_outcomes(order, seed):
    report = run_suite("all", trials=3, order=order, seed=seed)
    assert hashlib.sha256(_stripped(report).encode()).hexdigest() == GOLDEN[(order, seed)]


def _register(monkeypatch, base_id, **changes):
    """Add a copy of catalog record ``base_id`` under the id "probe"."""
    record = replace(CATALOG[base_id], id="probe", group="probe", **changes)
    monkeypatch.setitem(CATALOG, "probe", record)
    return record


class TestDeclarations:
    def test_sampler_name_matches_drawn_backend(self):
        rng = random.Random(0)
        for record in CATALOG.values():
            accepted = 0
            while accepted < 5:
                try:
                    params = record.draw(rng)
                except _Reject:
                    continue
                accepted += 1
                assert params.backend is SAMPLER_BACKENDS[record.sampler], record.id

    @pytest.mark.parametrize("base_id", ["pascal-1", "add-tan-plus"])
    def test_always_rejecting_sampler_fails_once_per_trial(self, monkeypatch, base_id):
        def reject(rng):
            raise _Reject

        _register(monkeypatch, base_id, draw=reject)
        (result,) = run_suite("probe", trials=3, seed=1).results
        assert result.status == "fail"
        texts = [(f.params, f.lhs, f.rhs, f.delta) for f in result.failures]
        assert texts == [({}, "sampler for probe", "no admissible draw found", None)] * 3

    def test_exact_records_do_not_skip_domain_errors(self, monkeypatch):
        def sides(rng, params, order):
            raise SeriesDiverging("not a rejection for an exact record")
            yield

        _register(monkeypatch, "pascal-1", sides=sides)
        with pytest.raises(SeriesDiverging):
            run_suite("probe", trials=1)

    def test_first_mismatch_ends_the_trial(self, monkeypatch):
        def sides(rng, params, order):
            yield {"n": "1"}, F(1), F(2)
            raise AssertionError("sides evaluated past the first mismatch")

        _register(monkeypatch, "pascal-1", sides=sides)
        (result,) = run_suite("probe", trials=2).results
        assert [(f.lhs, f.rhs) for f in result.failures] == [("1", "2")] * 2

    @pytest.mark.parametrize(
        "lhs, rhs, expected",
        [
            (
                TruncatedSeries([F(1), F(2), F(3)]),
                TruncatedSeries([F(1), F(2), F(4)]),
                ("coeff[2]=3", "coeff[2]=4", None),
            ),
            (
                TruncatedSeries2({(0, 1): F(1)}, 2, Backend.RATIONAL),
                TruncatedSeries2({(0, 1): F(2)}, 2, Backend.RATIONAL),
                ("coeff[(0, 1)]=1", "coeff[(0, 1)]=2", None),
            ),
            ((F(1), F(2)), (F(1), F(3)), ("coeff[1]=2", "coeff[1]=3", None)),
            (F(1, 2), F(1, 3), ("1/2", "1/3", None)),
            (1.0, 1.5, ("1.0", "1.5", 0.5)),
        ],
    )
    def test_counterexample_texts(self, monkeypatch, lhs, rhs, expected):
        def sides(rng, params, order):
            yield {"n": "1"}, lhs, rhs

        _register(monkeypatch, "pascal-1", sides=sides)
        (result,) = run_suite("probe", trials=1).results
        (failure,) = result.failures
        assert (failure.lhs, failure.rhs, failure.delta) == expected
        assert failure.params == {"n": "1"}

    def test_piu_special_reports_an_unevaluable_value(self, monkeypatch):
        # after the setup found the zero, a value that cannot be evaluated is a
        # counterexample, not a rejected draw
        def diverging(*args, **kwargs):
            raise SeriesDiverging("probe")

        monkeypatch.setattr(lucascalc.identities, "weighted_fn_value", diverging)
        ids = ["piu-special-1", "piu-special-2", "piu-special-3"]
        texts = [("sin diverged", "0"), ("cos diverged", ""), ("tan not evaluable", "0")]
        for result, (lhs, rhs) in zip(run_suite(ids, trials=2, seed=3).results, texts):
            assert result.status == "fail"
            assert [(f.lhs, f.rhs, f.delta, f.params["n"]) for f in result.failures] == [
                (lhs, rhs, None, "1")
            ] * 2

    def test_pi_root_scans_to_the_setup_bound(self):
        # _pi_setup rejects zeros above 8, so the scan behind it stops at 8
        params = make_params(1.0, 1.0)
        assert _pi_root(params, 0.32).value == pytest.approx(7.818, abs=1e-3)
        with pytest.raises(NoRootFound):
            _pi_root(params, 0.30)  # the zero is at 8.61

    def test_order_below_selection_minimum_rejected(self):
        with pytest.raises(ValueError, match="order"):
            run_suite("exp-dk", trials=1, order=3)
        with pytest.raises(ValueError, match="order"):
            run_suite(["pascal", "trig-d2"], trials=1, order=1)
        assert run_suite("exp-dk", trials=2, order=4).all_passed
        assert run_suite("pascal", trials=2, order=0).all_passed


def test_duplicate_id_and_all_in_a_selection():
    before = dict(CATALOG)
    with pytest.raises(ValueError, match="^duplicate identity id pascal-1$"):
        _identity("pascal-1", "pascal", "anchor", "series-exact", None)(None)
    assert CATALOG == before
    assert _resolve(["pascal", "all"]) == list(CATALOG.values())


def test_compare_falls_back_to_repr_when_every_coefficient_agrees():
    # equal values in two backends: the series differ, but no coefficient pair does
    f = TruncatedSeries([F(1), F(2)], Backend.RATIONAL)
    failure = _compare({}, f, promote_series(f, Backend.GAUSSIAN), 0.0)
    assert failure.lhs == "TruncatedSeries(order=1, coeffs=(Fraction(1, 1), Fraction(2, 1)))"
    assert failure.rhs.startswith("TruncatedSeries(order=1, coeffs=(GaussianRational(")
    g = TruncatedSeries2({(0, 1): F(3)}, 2, Backend.RATIONAL)
    failure = _compare({}, g, TruncatedSeries2({(0, 1): GaussianRational(3)}, 2, Backend.GAUSSIAN), 0.0)
    assert (failure.lhs, failure.rhs) == ("TruncatedSeries2(order=2, terms=1)",) * 2
