"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  The simulation-study criteria share a single full-scale run
(replicates=100, boot_samples=100, restarts=10, n=200), which dominates
the runtime.
"""

import datetime as dt
import functools
import math
import time

import numpy as np
import pytest
from scipy import stats

from relqual.dag import Dag, VariableSet, enumerate_dags
from relqual.data import Dataset
from relqual.discretize import DiscreteScoreCache, bic_discrete
from relqual.forest import ForestConfig, ablate_predictor, fit_forest, \
    permutation_importance
from relqual.gaussian import GaussianBn, GaussianScoreCache, bic_g, \
    edge_inference, fit, implied_moments, simulate
from relqual.ingest import CachedHttp, FetchSpec, HttpCache, PackageDownloads, \
    TransportResponse, build_daily_series, fetch_downloads
from relqual.metrics import classify
from relqual.ols import fit_power_law
from relqual.quality import DailySeries, UsageRecord, correct_new_users, \
    screen_significance, timeline
from relqual.search import HcConfig, averaged_network, bootstrap_average, \
    exact_map_edge_probabilities, hc_learner, hill_climb
from relqual.simstudy import SimStudyConfig, default_methods, default_truth, \
    run_simstudy

import json


def criterion(number, title):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:>2}: FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:>2}: PASS  {title}")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# shared full-scale simulation study (criteria 1 and 2)

EIGHT_CORE_BUDGET_S = 8 * 600  # the stated 10-minute budget on 8 cores


@pytest.fixture(scope="module")
def full_study():
    cfg = SimStudyConfig(
        truth=default_truth(),
        replicates=100,
        sample_size=200,
        methods=default_methods(),
        boot_samples=100,
        hc=HcConfig(restarts=10),
        seed=0,
    )
    started = time.time()
    report = run_simstudy(cfg)
    elapsed = time.time() - started
    print(f"\nfull simulation study took {elapsed:.0f}s "
          f"(budget {EIGHT_CORE_BUDGET_S}s of single-core time)")
    print(report.format_table())
    return report, elapsed


@criterion(1, "simulation-study ordering: HC/MAP recover, discretized arms do not")
def test_criterion_1_recovery_ordering(full_study):
    report, elapsed = full_study
    assert report.fraction("HC", 0.85) >= 0.4
    assert report.fraction("MAP", 0.85) >= 0.4
    for arm in ("HC-D-F", "HC-D-H"):
        worst = max(report.fraction(arm, t)
                    for t in (0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90,
                              0.95, 1.00))
        assert worst <= 0.05
    assert elapsed <= EIGHT_CORE_BUDGET_S


@criterion(2, "threshold shape: HC gap at 1.00, MAP peak inside [0.75, 0.95]")
def test_criterion_2_threshold_shape(full_study):
    report, _ = full_study
    assert report.fraction("HC", 0.85) - report.fraction("HC", 1.00) >= 0.2
    grid = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00)
    map_exact = {t: report.fraction("MAP", t) for t in grid}
    best = max(map_exact.values())
    assert any(abs(map_exact[t] - best) < 1e-12
               for t in grid if 0.75 <= t <= 0.95)


# ---------------------------------------------------------------------------


def random_four_node_dataset(seed):
    rng = np.random.default_rng(seed)
    variables = VariableSet(["A", "B", "C", "D"])
    edge_pool = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    picks = [e for e in edge_pool if rng.random() < 0.5]
    dag = Dag(variables, frozenset(picks))
    coefs = tuple(rng.uniform(0.4, 1.2, size=len(dag.parents(i))) *
                  rng.choice([-1.0, 1.0], size=len(dag.parents(i)))
                  for i in range(4))
    bn = GaussianBn(dag, rng.normal(0, 1, 4), coefs, rng.uniform(0.6, 1.4, 4))
    return simulate(bn, 80, seed=seed + 1)


def brute_force_edge_probabilities(data, max_parents):
    p = len(data.variables)
    cache = GaussianScoreCache(data, max_parents)
    shift = {}
    for child in range(p):
        best = -np.inf
        for mask in range(1 << p):
            if mask & (1 << child) or bin(mask).count("1") > max_parents:
                continue
            best = max(best, cache.family_score(child, mask))
        shift[child] = best
    totals = np.zeros((p, p))
    denom = 0.0
    count = 0
    for dag in enumerate_dags(p, data.variables):
        count += 1
        weight = 1.0
        for child in range(p):
            mask = 0
            for parent in dag.parents(child):
                mask |= 1 << parent
            weight *= math.exp(cache.family_score(child, mask) - shift[child])
        denom += weight
        for u, v in dag.edges:
            totals[u, v] += weight
    assert count == 543  # all labeled four-node DAGs
    return totals / denom


@criterion(3, "exact posterior averaging matches 543-DAG enumeration to 1e-9")
def test_criterion_3_exact_map_oracle():
    started = time.time()
    for rep in range(20):
        data = random_four_node_dataset(42_000 + rep)
        conf = exact_map_edge_probabilities(data, max_parents=3)
        expected = brute_force_edge_probabilities(data, max_parents=3)
        strength = expected + expected.T
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                assert abs(conf.strength[a, b] - strength[a, b]) <= 1e-9
                if strength[a, b] > 1e-12:
                    assert abs(conf.direction[a, b]
                               - expected[a, b] / strength[a, b]) <= 1e-9
    assert time.time() - started <= 60


@criterion(4, "hill climbing attains the exhaustive 25-DAG optimum >= 90/100")
def test_criterion_4_hill_climb_oracle():
    started = time.time()
    variables = VariableSet(["A", "B", "C"])
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(51_000 + rep)
        rows = rng.standard_normal((100, 3))
        rows[:, 1] += rng.uniform(-1.2, 1.2) * rows[:, 0]
        rows[:, 2] += rng.uniform(-1.2, 1.2) * rows[:, 1]
        data = Dataset(variables, rows)
        learned = hill_climb(data, HcConfig(restarts=10, seed=rep))
        best = max(bic_g(d, data) for d in enumerate_dags(3, variables))
        hits += abs(bic_g(learned, data) - best) < 1e-9
    assert hits >= 90
    assert time.time() - started <= 60


@criterion(5, "score correctness: decompositions exact, closed form to 1e-9")
def test_criterion_5_score_correctness():
    truth = default_truth()
    data = simulate(truth, 150, seed=7)
    cache = GaussianScoreCache(data)
    total = bic_g(truth.dag, data)
    parts = 0.0
    for node in range(truth.dag.n):
        mask = 0
        for parent in truth.dag.parents(node):
            mask |= 1 << parent
        parts += cache.family_score(node, mask)
    assert total == parts

    rng = np.random.default_rng(9)
    dvars = VariableSet(["X", "Y", "Z"])
    from relqual.data import DiscreteDataset
    drows = rng.integers(0, 3, size=(90, 3))
    ddata = DiscreteDataset(dvars, drows, (3, 3, 3))
    ddag = Dag.from_names(dvars, [("X", "Y"), ("Y", "Z")])
    dcache = DiscreteScoreCache(ddata)
    dparts = dcache.family_score(0, 0) + dcache.family_score(1, 1) + \
        dcache.family_score(2, 2)
    assert bic_discrete(ddag, ddata) == dparts

    col = rng.standard_normal(50)
    single = Dataset(VariableSet(["A"]), col[:, None])
    sigma2 = col.var()
    expected = -50 / 2 * (np.log(2 * np.pi * sigma2) + 1) - (2 / 2) * np.log(50)
    assert abs(bic_g(Dag(VariableSet(["A"])), single) - expected) <= 1e-9


@criterion(6, "ancestral sampling matches implied moments at n=200000")
def test_criterion_6_simulation_fidelity():
    started = time.time()
    rng = np.random.default_rng(33)
    variables = VariableSet([f"V{i}" for i in range(6)])
    dag = Dag(variables, frozenset({(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)}))
    coefs = tuple(rng.uniform(0.6, 1.4, size=len(dag.parents(i))) *
                  rng.choice([-1.0, 1.0], size=len(dag.parents(i)))
                  for i in range(6))
    bn = GaussianBn(dag, rng.uniform(-1, 1, 6), coefs, rng.uniform(0.7, 1.3, 6))
    mean, cov = implied_moments(bn)
    data = simulate(bn, 200_000, seed=34)
    sample_mean = data.rows.mean(axis=0)
    sample_cov = np.cov(data.rows, rowvar=False)
    assert np.max(np.abs(sample_mean - mean)) <= 0.01
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.max(np.abs(sample_cov - cov) / scale) <= 0.02
    assert time.time() - started <= 30


@criterion(7, "OLS inference: exact 4-point fit and uniform null p-values")
def test_criterion_7_ols_inference():
    variables = VariableSet(["x", "y"])
    dag = Dag.from_names(variables, [("x", "y")])
    data = Dataset(variables, np.column_stack([[1, 2, 3, 4], [2, 4, 6, 8]]))
    inf = edge_inference(dag, data)
    # orthogonal-decomposition solve: hand value 2 at float precision
    assert inf.coefficients[(0, 1)] == pytest.approx(2.0, abs=1e-12)
    assert inf.p_values[(0, 1)] == 0.0
    assert inf.adjusted_r2[1] == 1.0

    pvals = []
    for rep in range(1000):
        rng = np.random.default_rng(77_000 + rep)
        d = Dataset(variables, rng.standard_normal((60, 2)))
        pvals.append(edge_inference(dag, d).p_values[(0, 1)])
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.05


# ---------------------------------------------------------------------------
# criterion 8: the usage-independence contrast

QUALITY_VARS = ("Quality", "New.Users", "Usage.Intensity", "Usage.Frequency",
                "Release.Date", "Release.Duration")
EXCEPTION_VARS = ("Exceptions", "New.Users", "Usage.Intensity",
                  "Usage.Frequency", "Release.Date", "Release.Duration")


def synthetic_releases(seed, n=120):
    """Log-scale release table: usage block plus release covariates."""
    rng = np.random.default_rng(seed)
    release_date = rng.standard_normal(n)
    release_duration = 0.8 * release_date + 0.6 * rng.standard_normal(n)
    new_users = 0.7 * release_duration + rng.standard_normal(n)
    usage_intensity = 0.8 * new_users + 0.6 * rng.standard_normal(n)
    usage_frequency = 0.9 * usage_intensity + 0.5 * rng.standard_normal(n)
    return rng, release_date, release_duration, new_users, usage_intensity, \
        usage_frequency


def quality_adjacencies(conf_dag, target):
    names = conf_dag.variables.names
    t = names.index(target)
    return {names[u] if v == t else names[v]
            for u, v in conf_dag.edges if t in (u, v)}


@criterion(8, "quality metric is usage independent; raw exceptions are not")
def test_criterion_8_usage_independence():
    independent_ok = 0
    dependent_ok = 0
    for rep in range(50):
        rng, rd, rdur, nu, ui, uf = synthetic_releases(88_000 + rep)
        n = nu.shape[0]

        # normalized: exceptions = q * new_users with q independent of usage,
        # so log Quality = log q carries no usage signal at all
        log_q = 0.8 * rng.standard_normal(n)
        data_q = Dataset(VariableSet(QUALITY_VARS),
                         np.column_stack([log_q, nu, ui, uf, rd, rdur]))
        conf = bootstrap_average(data_q, hc_learner(HcConfig(restarts=5, seed=rep)),
                                 boot_samples=50, seed=rep)
        net = averaged_network(conf, 0.85).dag
        touching = quality_adjacencies(net, "Quality")
        if not touching & {"New.Users", "Usage.Intensity", "Usage.Frequency"}:
            independent_ok += 1

        # unnormalized: exceptions scale with the user count
        log_exc = 1.0 * nu + 0.5 * rng.standard_normal(n)
        data_e = Dataset(VariableSet(EXCEPTION_VARS),
                         np.column_stack([log_exc, nu, ui, uf, rd, rdur]))
        conf_e = bootstrap_average(data_e, hc_learner(HcConfig(restarts=5, seed=rep)),
                                   boot_samples=50, seed=rep)
        net_e = averaged_network(conf_e, 0.85).dag
        if "New.Users" in quality_adjacencies(net_e, "Exceptions"):
            dependent_ok += 1
    assert independent_ok >= 45
    assert dependent_ok >= 45


@criterion(9, "power-law interval covers the truth 93-97% of the time")
def test_criterion_9_power_law_coverage():
    covered = 0
    for rep in range(1000):
        rng = np.random.default_rng(99_000 + rep)
        exponent = rng.uniform(1.0, 1.6)
        x = rng.uniform(1, 30, 150)
        y = 1.5 * x ** exponent * np.exp(0.4 * rng.standard_normal(150))
        data = Dataset(VariableSet(["x", "y"]), np.column_stack([x, y]))
        res = fit_power_law(data, "y", "x")
        covered += res.ci_low <= exponent <= res.ci_high
    assert 930 <= covered <= 970


@criterion(10, "forest: OOB fit, importance ordering, ablation direction")
def test_criterion_10_forest_properties():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, 500)
    identity = Dataset(VariableSet(["x", "y"]), np.column_stack([x, x]))
    model = fit_forest(identity, "y", ForestConfig(ntree=60, mtry=1, seed=0))
    assert model.oob_r2() >= 0.9

    names = ["x1", "x2", "n1", "n2", "n3", "n4", "y"]
    ordering_ok = 0
    for rep in range(50):
        r = np.random.default_rng(10_500 + rep)
        cols = [r.standard_normal(300) for _ in range(6)]
        y = 2.0 * cols[0] + 1.2 * cols[1] + 0.5 * r.standard_normal(300)
        data = Dataset(VariableSet(names), np.column_stack(cols + [y]))
        forest = fit_forest(data, "y", ForestConfig(ntree=40, seed=rep))
        report = permutation_importance(forest, repeats=3, seed=rep)
        by_name = dict(zip(report.predictors, report.permutation))
        informative = min(by_name["x1"], by_name["x2"])
        noise = max(by_name[k] for k in ("n1", "n2", "n3", "n4"))
        ordering_ok += informative > noise
    assert ordering_ok >= 48  # 95% of 50 runs

    ablate_ok = 0
    for rep in range(50):
        r = np.random.default_rng(11_500 + rep)
        complexity = r.standard_normal(200)
        extra = r.standard_normal(200)
        downloads = r.standard_normal(200)
        y = 1.0 * complexity + 1.0 * downloads + 0.4 * r.standard_normal(200)
        data = Dataset(VariableSet(["complexity", "extra", "downloads", "y"]),
                       np.column_stack([complexity, extra, downloads, y]))
        with_r2, without_r2 = ablate_predictor(
            data, "y", "downloads", ForestConfig(ntree=25, seed=rep),
            k_repeats=2, k_folds=2, seed=rep)
        ablate_ok += with_r2 > without_r2
    assert ablate_ok >= 48


@criterion(11, "pipeline rules: correction postcondition, exact timeline, counts")
def test_criterion_11_pipeline_rules():
    day0 = dt.date(2016, 1, 1)
    for rep in range(1000):
        rng = np.random.default_rng(120_000 + rep)
        length = int(rng.integers(1, 25))
        records = [UsageRecord(day0 + dt.timedelta(days=i), "r",
                               int(rng.integers(0, 30)), int(rng.integers(0, 30)),
                               0, 0, 0.0, 0)
                   for i in range(length)]
        corrected = correct_new_users(records)
        cumulative = 0
        for rec in corrected:
            cumulative += rec.new_users
            assert cumulative >= rec.users

    days = tuple(day0 + dt.timedelta(days=i) for i in range(4))
    series = DailySeries("p", days, np.array([10, 20, 0, 5]),
                         np.array([1, 3, 3, 4]))
    line = timeline(series)
    assert line.new_issues.tolist() == [1, 2, 0, 1]
    assert line.quality[0] == 0.1
    assert line.quality[1] == 0.1
    assert line.quality[2] == 0.0
    assert line.quality[3] == 0.2
    assert line.trend is None  # below the ten-day floor

    for rep in range(200):
        rng = np.random.default_rng(130_000 + rep)
        span_days = int(rng.integers(3, 25))
        offsets = rng.integers(-4, span_days + 4, size=rng.integers(0, 30))
        issue_dates = tuple(day0 + dt.timedelta(days=int(o)) for o in offsets)
        downloads = PackageDownloads(
            "p", tuple(day0 + dt.timedelta(days=i) for i in range(span_days)),
            np.ones(span_days, dtype=np.int64), ())
        series = build_daily_series("p", downloads, issue_dates, day0,
                                    day0 + dt.timedelta(days=span_days - 1))
        for i in range(span_days):
            day = day0 + dt.timedelta(days=i)
            assert series.cumulative_issues[i] == \
                sum(1 for d in issue_dates if d <= day)
        assert np.all(np.diff(series.cumulative_issues) >= 0)


@criterion(12, "ingest determinism and the significance screen contrast")
def test_criterion_12_ingest_determinism(tmp_path):
    start = dt.date(2018, 1, 1)
    end = start + dt.timedelta(days=19)
    rows = [{"day": (start + dt.timedelta(days=i)).isoformat(),
             "downloads": 50 + 3 * i} for i in range(20)]
    url_whole = f"https://api.npmjs.org/downloads/range/{start}:{end}/pkg"
    mid = start + dt.timedelta(days=9)
    url_a = f"https://api.npmjs.org/downloads/range/{start}:{mid}/pkg"
    url_b = f"https://api.npmjs.org/downloads/range/{mid + dt.timedelta(days=1)}:{end}/pkg"
    fixtures = {
        url_whole: {"downloads": rows},
        url_a: {"downloads": rows[:10]},
        url_b: {"downloads": rows[10:]},
    }

    calls = {"n": 0}

    def transport(url, params, headers):
        calls["n"] += 1
        return TransportResponse(200, {}, json.dumps(fixtures[url]).encode())

    cache_dir = tmp_path / "cache"
    spec = FetchSpec(("pkg",), start, end)
    warm = fetch_downloads(spec, CachedHttp(HttpCache(cache_dir), transport))
    offline_http = CachedHttp(HttpCache(cache_dir), transport=None)
    replay = fetch_downloads(spec, offline_http)
    assert offline_http.network_calls == 0
    assert replay.downloads["pkg"].days == warm.downloads["pkg"].days
    assert np.array_equal(replay.downloads["pkg"].downloads,
                          warm.downloads["pkg"].downloads)

    chunk_dir = tmp_path / "chunks"
    chunked = fetch_downloads(
        FetchSpec(("pkg",), start, end, max_window_days=10),
        CachedHttp(HttpCache(chunk_dir), transport))
    assert chunked.downloads["pkg"].days == warm.downloads["pkg"].days
    assert np.array_equal(chunked.downloads["pkg"].downloads,
                          warm.downloads["pkg"].downloads)

    flagged_proportional = 0
    flagged_independent = 0
    day0 = dt.date(2018, 1, 1)
    for rep in range(50):
        rng = np.random.default_rng(140_000 + rep)
        downloads = rng.integers(20, 200, size=45)
        proportional_new = downloads // 10 + rng.integers(0, 2, size=45)
        independent_new = rng.poisson(5, size=45)
        days = tuple(day0 + dt.timedelta(days=i) for i in range(45))
        prop = DailySeries("a", days, downloads, np.cumsum(proportional_new))
        indep = DailySeries("b", days, downloads, np.cumsum(independent_new))
        flagged_proportional += screen_significance(prop).slope_p_value < 0.05
        flagged_independent += screen_significance(indep).slope_p_value > 0.05
    assert flagged_proportional >= 45
    assert flagged_independent >= 45
