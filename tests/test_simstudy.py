import numpy as np
import pytest

from relqual.dag import Dag, VariableSet, topological_order
from relqual.discretize import DiscretizationSpec
from relqual.gaussian import GaussianBn, fit, simulate
from relqual import simstudy
from relqual.ols import RankDeficientError, fit_ols
from relqual.search import HcConfig, ScoreLearner
from relqual.simstudy import (
    MethodSpec,
    SimStudyConfig,
    default_methods,
    default_truth,
    run_simstudy,
)


def tiny_config(**overrides):
    base = dict(
        truth=default_truth(),
        replicates=4,
        sample_size=120,
        methods=(MethodSpec("HC", "hc"),),
        thresholds=(0.85, 1.0),
        boot_samples=8,
        hc=HcConfig(restarts=2),
        seed=0,
    )
    base.update(overrides)
    return SimStudyConfig(**base)


def test_default_truth_shape():
    truth = default_truth()
    assert len(truth.dag.edges) == 6
    topological_order(truth.dag)
    for coefs in truth.coefficients:
        assert np.all((np.abs(coefs) >= 0.5) & (np.abs(coefs) <= 1.5))
    assert np.all(truth.residual_sds == 1.0)


def test_default_truth_refit_recovers_coefficients():
    truth = default_truth()
    data = simulate(truth, 20_000, seed=100)
    refit = fit(truth.dag, data)
    for node in range(6):
        parents = truth.dag.parents(node)
        if not parents:
            continue
        res = fit_ols(data.rows[:, node], data.rows[:, parents])
        for est, true, se in zip(refit.coefficients[node],
                                 truth.coefficients[node], res.std_errors):
            assert abs(est - true) < 3 * se


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("bad", "annealing")
    with pytest.raises(ValueError):
        MethodSpec("bad", "hybrid-gs", DiscretizationSpec("equal-frequency", 3))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(thresholds=(1.5,))
    with pytest.raises(ValueError):
        tiny_config(replicates=0)
    with pytest.raises(ValueError):
        tiny_config(methods=())


def test_config_rejects_sample_size_below_an_arms_bins():
    binned = MethodSpec("HC-D-F", "hc", DiscretizationSpec("equal-frequency", 3))
    with pytest.raises(ValueError, match="sample_size 2 .* 3 bins of arm HC-D-F"):
        tiny_config(sample_size=2, methods=(MethodSpec("HC", "hc"), binned))
    assert tiny_config(sample_size=3, methods=(binned,)).sample_size == 3
    # continuous arms bin nothing
    assert tiny_config(sample_size=2).sample_size == 2


def test_report_shape_and_fraction_sums():
    cfg = tiny_config(methods=(MethodSpec("HC", "hc"), MethodSpec("MAP", "map")))
    report = run_simstudy(cfg)
    assert len(report.rows) == 2 * 2
    for row in report.rows:
        assert row.exact + row.off_by_one + row.worse == pytest.approx(1.0, abs=1e-12)


def test_single_replicate_fractions_are_indicator():
    report = run_simstudy(tiny_config(replicates=1))
    for row in report.rows:
        assert set((row.exact, row.off_by_one, row.worse)) <= {0.0, 1.0}


def test_same_seed_reproduces_report_byte_for_byte():
    a = run_simstudy(tiny_config())
    b = run_simstudy(tiny_config())
    assert a.to_csv() == b.to_csv()


def test_parallel_equals_serial():
    cfg = tiny_config(replicates=3)
    assert run_simstudy(cfg, jobs=2).to_csv() == run_simstudy(cfg, jobs=1).to_csv()


@pytest.mark.parametrize("jobs", [0, -3])
def test_non_positive_jobs_are_refused(jobs):
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        run_simstudy(tiny_config(), jobs=jobs)


def test_empty_truth_recovered_on_noise():
    variables = VariableSet([f"N{i}" for i in range(4)])
    truth = GaussianBn(Dag(variables), np.zeros(4),
                       (np.empty(0),) * 4, np.ones(4))
    cfg = SimStudyConfig(
        truth=truth, replicates=20, sample_size=150,
        methods=(MethodSpec("HC", "hc"),), thresholds=(0.85,),
        boot_samples=25, hc=HcConfig(restarts=2), seed=5)
    report = run_simstudy(cfg)
    assert report.fraction("HC", 0.85) >= 0.9


def test_failing_method_counts_as_worse(caplog):
    # constant column: equal-interval discretization cannot bin it
    variables = VariableSet(["A", "B"])
    truth = GaussianBn(Dag(variables), np.zeros(2),
                       (np.empty(0), np.empty(0)), np.array([0.0, 1.0]))
    cfg = SimStudyConfig(
        truth=truth, replicates=2, sample_size=50,
        methods=(MethodSpec("HC-D-I", "hc", DiscretizationSpec("equal-interval", 2)),),
        thresholds=(0.85,), boot_samples=4, hc=HcConfig(restarts=1), seed=0)
    report = run_simstudy(cfg)
    assert report.rows[0].worse == 1.0
    assert report.metadata["arm_failures"] == {"HC-D-I": 2}
    assert run_simstudy(cfg, jobs=2).metadata == report.metadata


def _raising_hc_learner(error):
    def make(cfg):
        def search(data, resamples, table, seeds):
            raise error
        return ScoreLearner(cfg.max_parents, search)
    return make


def test_numeric_arm_failure_is_logged_and_counted_as_worse(monkeypatch, caplog):
    monkeypatch.setattr(simstudy, "hc_learner", _raising_hc_learner(
        RankDeficientError("singular parent covariance for node 0")))
    report = run_simstudy(tiny_config(replicates=2, boot_samples=2))
    assert [row.worse for row in report.rows] == [1.0, 1.0]
    assert report.metadata["arm_failures"] == {"HC": 2}
    failures = [r for r in caplog.records if "failed" in r.getMessage()]
    assert len(failures) == 2
    assert "singular parent covariance" in failures[0].getMessage()


def test_defect_in_an_arm_propagates(monkeypatch):
    monkeypatch.setattr(simstudy, "hc_learner",
                        _raising_hc_learner(TypeError("not a numeric failure")))
    with pytest.raises(TypeError, match="not a numeric failure"):
        run_simstudy(tiny_config(replicates=1, boot_samples=2))


def test_default_methods_cover_required_arms():
    names = [m.name for m in default_methods()]
    assert names == ["HC", "MAP", "HC-D-F", "HC-D-H"]
    kinds = {m.name: m.discretization for m in default_methods()}
    assert kinds["HC"] is None and kinds["MAP"] is None
    assert kinds["HC-D-F"].method == "equal-frequency"
    assert kinds["HC-D-H"].method == "hartemink"
