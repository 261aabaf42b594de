"""Identity catalog coverage, runner determinism, and report shape."""

import json

import pytest

from lucascalc import CATALOG, UnknownIdentityId, run_suite

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
        def stripped(report):
            data = report.to_dict()
            data.pop("wall_time_s")
            for result in data["results"]:
                result.pop("wall_time_s")
            return json.dumps(data, sort_keys=True)

        a = run_suite(["pascal", "euler", "add-tan", "calc-fundamental"], trials=4, seed=99)
        b = run_suite(["pascal", "euler", "add-tan", "calc-fundamental"], trials=4, seed=99)
        assert stripped(a) == stripped(b)

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
