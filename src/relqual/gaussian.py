"""Linear-Gaussian Bayesian networks.

A network is a DAG plus, per node, an intercept, one linear coefficient per
parent, and a residual standard deviation.  This module fits those
parameters, scores structures with the Gaussian BIC (higher is better),
simulates by ancestral sampling, and reports per-edge significance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dag import Dag, VariableSet, topological_order
from .data import Dataset, FamilyScorer
from .ols import InsufficientRowsError, OlsFit, RankDeficientError, fit_ols
from .rng import rng_from


class DegenerateVarianceError(ValueError):
    """A node has zero residual variance; the Gaussian score is undefined."""


@dataclass(frozen=True)
class GaussianBn:
    """Fitted linear-Gaussian network.

    ``coefficients[i]`` is aligned with ``dag.parents(i)`` (sorted parent
    indices).
    """

    dag: Dag
    intercepts: np.ndarray
    coefficients: tuple[np.ndarray, ...]
    residual_sds: np.ndarray

    def __post_init__(self):
        n = self.dag.n
        intercepts = np.asarray(self.intercepts, dtype=float)
        sds = np.asarray(self.residual_sds, dtype=float)
        if intercepts.shape != (n,) or sds.shape != (n,):
            raise ValueError("parameter arrays must have one entry per node")
        if np.any(sds < 0) or not np.all(np.isfinite(sds)):
            raise ValueError("residual sds must be finite and non-negative")
        coefs = tuple(np.asarray(c, dtype=float) for c in self.coefficients)
        if len(coefs) != n:
            raise ValueError("need one coefficient vector per node")
        for i, c in enumerate(coefs):
            if c.shape != (len(self.dag.parents(i)),):
                raise ValueError(f"node {i}: coefficient count != parent count")
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "residual_sds", sds)
        object.__setattr__(self, "coefficients", coefs)

    def to_json(self) -> str:
        names = self.dag.variables.names
        nodes = {}
        for i, name in enumerate(names):
            parents = self.dag.parents(i)
            nodes[name] = {
                "intercept": float(self.intercepts[i]),
                "parents": [names[p] for p in parents],
                "coefficients": [float(c) for c in self.coefficients[i]],
                "residual_sd": float(self.residual_sds[i]),
            }
        return json.dumps({"variables": list(names), "nodes": nodes}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GaussianBn":
        payload = json.loads(text)
        variables = VariableSet(payload["variables"])
        idx = {name: i for i, name in enumerate(variables.names)}
        edges = set()
        for child, spec in payload["nodes"].items():
            for parent in spec["parents"]:
                edges.add((idx[parent], idx[child]))
        dag = Dag(variables, frozenset(edges))
        n = len(variables)
        intercepts = np.zeros(n)
        sds = np.zeros(n)
        coefs: list[np.ndarray] = [np.empty(0)] * n
        for child, spec in payload["nodes"].items():
            i = idx[child]
            intercepts[i] = spec["intercept"]
            sds[i] = spec["residual_sd"]
            given = {idx[p]: c for p, c in zip(spec["parents"], spec["coefficients"])}
            coefs[i] = np.array([given[p] for p in dag.parents(i)], dtype=float)
        return cls(dag, intercepts, tuple(coefs), sds)


def fit(dag: Dag, data: Dataset) -> GaussianBn:
    """Least-squares parameters per node; residual sd is the ML estimate."""
    if dag.variables != data.variables:
        raise ValueError("dag and data use different variable sets")
    n_nodes = dag.n
    intercepts = np.zeros(n_nodes)
    sds = np.zeros(n_nodes)
    coefs: list[np.ndarray] = []
    for node in range(n_nodes):
        parents = dag.parents(node)
        y = data.rows[:, node]
        x = data.rows[:, parents] if parents else None
        res = fit_ols(y, x)
        intercepts[node] = res.intercept
        sds[node] = res.residual_sd_ml
        coefs.append(res.coefficients)
    return GaussianBn(dag, intercepts, tuple(coefs), sds)


class GaussianScoreCache(FamilyScorer):
    """Gaussian BIC family scores of one dataset, or of bootstrap resamples
    of it.

    Each sample is reduced once to its ML covariance; a family score is then
    a small SPD solve, so structure search never touches the raw rows
    again.  ``family_scores`` scores many families of one parent count, one
    child and parent set per row, for every sample in one batched solve.
    """

    # bound in this class too: a tracer wraps and restores it per scorer
    # (perfbench) and must find it in the class's own namespace
    family_score = FamilyScorer.family_score

    def __init__(self, data: Dataset, max_parents: int | None = None,
                 resamples: np.ndarray | None = None):
        index = [slice(None)] if resamples is None else resamples
        self.covs = np.empty((len(index), data.rows.shape[1], data.rows.shape[1]))
        for b, idx in enumerate(index):
            sample = data.rows[idx]
            centered = sample - sample.mean(axis=0)
            self.covs[b] = (centered.T @ centered) / data.n
        super().__init__(data, max_parents, resamples)

    def family_scores(self, children: int | np.ndarray, parent_sets: np.ndarray,
                      resamples: slice = slice(None)
                      ) -> tuple[np.ndarray, dict[tuple[int, int], ValueError]]:
        """Scores of ``children[m]`` (an int child is every row's) given row
        m of ``parent_sets`` (M x k, ascending, one size k) in each sample
        selected: (B, M), NaN where scoring fails, and the error per (b, m).

        Operands stay contiguous and the residual is a batched matmul, so
        every entry is bit-equal to scoring its family alone.
        """
        covs = self.covs[resamples]
        n_samples, (n_sets, k) = covs.shape[0], parent_sets.shape
        if k > self.max_parents:
            raise ValueError("parent set exceeds max_parents")
        if self.n < k + 2:
            error = InsufficientRowsError(f"n={self.n} rows cannot support {k} parents")
            return (np.full((n_samples, n_sets), np.nan),
                    {(b, m): error for b in range(n_samples) for m in range(n_sets)})
        children = np.broadcast_to(children, n_sets)
        s_yy = covs[:, children, children]
        failures: dict[tuple[int, int], ValueError] = {}
        explained = 0.0
        if k:
            # fancy indexing leaves sample-major strides; copy to row-major
            sub = np.ascontiguousarray(
                covs[:, parent_sets[:, :, None], parent_sets[:, None, :]]).reshape(-1, k, k)
            cross = np.ascontiguousarray(covs[:, parent_sets, children[:, None]]).reshape(-1, k)
            try:
                solved = np.linalg.solve(sub, cross[:, :, None])
            except np.linalg.LinAlgError:
                # slogdet's LU meets a zero pivot exactly where solve's does
                singular = np.linalg.slogdet(sub)[0] == 0
                solved = np.full((len(sub), k, 1), np.nan)
                solved[~singular] = np.linalg.solve(sub[~singular], cross[~singular, :, None])
                for i in np.flatnonzero(singular).tolist():
                    failures[divmod(i, n_sets)] = RankDeficientError(
                        f"singular parent covariance for node {children[i % n_sets]}")
            explained = (cross[:, None, :] @ solved).reshape(n_samples, n_sets)
        sigma2 = np.maximum(s_yy - explained, 0.0)
        degenerate = sigma2 <= 1e-12 * np.maximum(s_yy, 1e-300)
        for b, m in zip(*np.nonzero(degenerate)):
            failures.setdefault((int(b), int(m)), DegenerateVarianceError(
                f"node {children[m]} has (near) zero residual variance"))
        with np.errstate(divide="ignore", invalid="ignore"):
            loglik = -0.5 * self.n * (np.log(2.0 * np.pi * sigma2) + 1.0)
        scores = loglik - 0.5 * (k + 2) * self._log_n
        for b, m in failures:
            scores[b, m] = np.nan
        return scores, failures


def bic_g(dag: Dag, data: Dataset) -> float:
    """Gaussian BIC of the structure: total log-likelihood at the fitted
    parameters minus (k/2) ln n, where k counts intercept, parent
    coefficients, and variance per node.  Decomposes over families."""
    if dag.variables != data.variables:
        raise ValueError("dag and data use different variable sets")
    return GaussianScoreCache(data).score_dag(dag)


def simulate(bn: GaussianBn, n: int, seed) -> Dataset:
    """Ancestral sampling: each node is its linear mean plus Gaussian noise.

    Nodes are visited in deterministic topological order with one draw per
    node, so a given seed always produces the same table.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = rng_from(seed)
    p = bn.dag.n
    out = np.zeros((n, p))
    for node in topological_order(bn.dag):
        mean = np.full(n, bn.intercepts[node])
        parents = bn.dag.parents(node)
        if parents:
            mean = mean + out[:, parents] @ bn.coefficients[node]
        sd = bn.residual_sds[node]
        values = mean if sd == 0 else mean + sd * rng.standard_normal(n)
        out[:, node] = values
    return Dataset(bn.dag.variables, out)


def implied_moments(bn: GaussianBn) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean vector and covariance matrix of the joint distribution.

    With x = a + Bx + e and D = diag(sd^2):  mean = (I-B)^-1 a and
    cov = (I-B)^-1 D (I-B)^-T, evaluated by solving against (I-B).
    """
    p = bn.dag.n
    b = np.zeros((p, p))
    for node in range(p):
        for coef, parent in zip(bn.coefficients[node], bn.dag.parents(node)):
            b[node, parent] = coef
    m = np.linalg.solve(np.eye(p) - b, np.eye(p))
    mean = m @ bn.intercepts
    cov = m @ np.diag(bn.residual_sds ** 2) @ m.T
    return mean, cov


@dataclass(frozen=True)
class EdgeInference:
    """Per-edge OLS coefficients and p-values; per-node adjusted R^2.

    Each node is regressed on all of its parents jointly, p-values are
    two-sided t-tests, and parentless nodes report adjusted R^2 of 0.
    """

    variables: VariableSet
    coefficients: dict[tuple[int, int], float]
    p_values: dict[tuple[int, int], float]
    adjusted_r2: dict[int, float]

    def rows(self) -> list[tuple[str, str, float, float]]:
        names = self.variables.names
        out = []
        for (parent, child), coef in sorted(self.coefficients.items()):
            out.append((names[parent], names[child], coef, self.p_values[(parent, child)]))
        return out


def edge_inference(dag: Dag, data: Dataset) -> EdgeInference:
    if dag.variables != data.variables:
        raise ValueError("dag and data use different variable sets")
    coefficients: dict[tuple[int, int], float] = {}
    p_values: dict[tuple[int, int], float] = {}
    adjusted: dict[int, float] = {}
    for node in range(dag.n):
        parents = dag.parents(node)
        if not parents:
            adjusted[node] = 0.0
            continue
        res: OlsFit = fit_ols(data.rows[:, node], data.rows[:, parents])
        adjusted[node] = res.adjusted_r_squared
        for j, parent in enumerate(parents):
            coefficients[(parent, node)] = float(res.coefficients[j])
            p_values[(parent, node)] = float(res.p_values[j])
    return EdgeInference(dag.variables, coefficients, p_values, adjusted)
