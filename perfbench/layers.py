"""Where the traced run hooks into relqual, and the per-layer metrics.

Each entry wraps a public function at the attribute its caller resolves:
``relqual.simstudy`` imports ``bootstrap_average`` by name, so that is the
attribute replaced; family scoring is reached through the score-cache
classes, so their methods are replaced on the class.  A target that a later
version removes is reported absent and its metrics read 0.
"""

from __future__ import annotations

import weakref

from fixtures import EXACT_SIZES

# Layer of a span is the first component of its name; LOESS is reported
# with the quality pipeline that calls it, and "bench" is the benchmark's
# own stand-in for the network.
LAYERS = ("search", "gaussian", "discretize", "metrics", "simstudy",
          "forest", "quality", "ingest", "cli", "bench")

ARM_NAMES = ("HC", "MAP", "HC-D-F", "HC-D-H")
DISCRETIZE_METHODS = ("equal-frequency", "hartemink")

# (name, unit) of every metric a traced run reports, in output order.
PER_LAYER = (
    [(f"{cache}.family_score.{k}", u)
     for cache in ("gaussian", "discretize")
     for k, u in (("calls", "count"), ("computed", "count"),
                  ("hit_ratio", "ratio"), ("s", "s"))]
    + [(f"discretize.discretize.{m}.s", "s") for m in DISCRETIZE_METHODS]
    + [("search.hill_climb.calls", "count"), ("search.hill_climb.self_s", "s"),
       ("search.bootstrap_average.resamples", "count"),
       ("search.bootstrap_average.s", "s"),
       ("search.map_dag.calls", "count"), ("search.map_dag.self_s", "s")]
    + [(f"search.exact_posterior.p{p}.s", "s") for p in EXACT_SIZES]
    + [("search.exact_posterior.growth", "ratio")]
    + [(f"simstudy.arm.{a}.s", "s") for a in ARM_NAMES]
    + [("simstudy.arm_failures", "count"),
       ("metrics.classify.calls", "count"), ("metrics.classify.s", "s"),
       ("forest.fit_forest.calls", "count"), ("forest.fit_forest.trees", "count"),
       ("forest.fit_forest.s", "s"), ("forest.tune_forest.s", "s"),
       ("forest.predict.s", "s"), ("forest.permutation_importance.s", "s"),
       ("loess.loess.calls", "count"), ("loess.loess.eval_points", "count"),
       ("loess.loess.s", "s"), ("quality.timeline.s", "s"),
       ("quality.screen_significance.s", "s"),
       ("quality.aggregate_usage.s", "s"),
       ("ingest.cache_put.calls", "count"), ("ingest.cache_put.bytes", "bytes"),
       ("ingest.cache_put.s", "s"), ("ingest.cache_get.calls", "count"),
       ("ingest.cache_get.hits", "count"), ("ingest.cache_get.s", "s"),
       ("ingest.transport.calls", "count"), ("ingest.retries", "count"),
       ("ingest.backoff_s", "s"), ("ingest.errors", "count"),
       ("ingest.hostile.items", "count"), ("ingest.hostile.sunk", "count"),
       ("cli.self_s", "s")]
    + [(f"share.{layer}", "ratio") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
)


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return "quality" if head == "loess" else head


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Probes:
    """Hook state that outlives one traced operation: which score-cache
    entries were seen, and which study arm the current work belongs to."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.learner_kind = weakref.WeakKeyDictionary()
        self.pending_discretize: dict[int, tuple[str, float]] = {}
        self.current_arm: str | None = None
        self.arm_names: dict[tuple, str] = {}
        try:
            from relqual.simstudy import default_methods
            for m in default_methods():
                disc = m.discretization.method if m.discretization else None
                self.arm_names[(m.search, disc)] = m.name
        except (ImportError, AttributeError):
            pass

    def add(self, name: str, amount: float) -> None:
        self.tracer.counters[name] += amount

    # family scoring: "computed" is the first sight of (cache, child, mask);
    # the hook runs millions of times, so it keys on id() and drops a
    # cache's entries when the cache is collected
    def family(self, layer: str):
        seen: dict[int, set] = {}
        counters = self.tracer.counters
        computed = f"{layer}.family_score.computed"

        def hook(args, kwargs):
            cache = args[0]
            entries = seen.get(id(cache))
            if entries is None:
                entries = seen[id(cache)] = set()
                weakref.finalize(cache, seen.pop, id(cache), None)
            key = (args[1], args[2]) if len(args) == 3 else \
                (_arg(args, kwargs, 1, "child"), _arg(args, kwargs, 2, "parent_mask"))
            if key not in entries:
                entries.add(key)
                counters[computed] += 1
        return hook

    # study arms: an arm is known once its bootstrap starts; discretizing
    # happens before that and is credited to the arm when it is known
    def discretize(self, args, kwargs, result, seconds):
        method = _arg(args, kwargs, 1, "spec").method
        self.add(f"discretize.discretize.{method}.s", seconds)
        self.pending_discretize[id(result.dataset)] = (method, seconds)

    def learner(self, kind: str):
        def hook(args, kwargs, result, seconds):
            self.learner_kind[result] = kind
        return hook

    def bootstrap(self, args, kwargs, result, seconds):
        data = _arg(args, kwargs, 0, "data")
        learner = _arg(args, kwargs, 1, "learner")
        self.add("search.bootstrap_average.resamples",
                 _arg(args, kwargs, 2, "boot_samples"))
        method, disc_s = self.pending_discretize.pop(id(data), (None, 0.0))
        arm = self.arm_names.get((self.learner_kind.get(learner), method),
                                 "other")
        self.current_arm = arm
        self.add(f"simstudy.arm.{arm}.s", seconds + disc_s)

    def arm_tail(self, args, kwargs, result, seconds):
        if self.current_arm is not None:
            self.add(f"simstudy.arm.{self.current_arm}.s", seconds)

    def exact(self, args, kwargs, result, seconds):
        p = len(_arg(args, kwargs, 0, "data").variables)
        self.add(f"search.exact_posterior.p{p}.s", seconds)

    def forest_trees(self, args, kwargs, result, seconds):
        self.add("forest.fit_forest.trees", _arg(args, kwargs, 2, "cfg").ntree)

    def loess_points(self, args, kwargs, result, seconds):
        self.add("loess.loess.eval_points", len(result))

    def cache_get(self, args, kwargs, result, seconds):
        if result is not None:
            self.add("ingest.cache_get.hits", 1)

    def cache_put(self, args, kwargs, result, seconds):
        self.add("ingest.cache_put.bytes",
                 len(_arg(args, kwargs, 4, "response").body))


def install(tracer, probes: Probes) -> None:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""
    hot = {"leaf": True}
    wraps = [
        ("relqual.gaussian", "GaussianScoreCache.family_score",
         "gaussian.family_score", probes.family("gaussian"), hot),
        ("relqual.discretize", "DiscreteScoreCache.family_score",
         "discretize.family_score", probes.family("discretize"), hot),
        ("relqual.simstudy", "simulate", "gaussian.simulate", None, {}),
        ("relqual.simstudy", "discretize", "discretize.discretize",
         probes.discretize, {}),
        ("relqual.simstudy", "hc_learner", "search.learner",
         probes.learner("hc"), {}),
        ("relqual.simstudy", "map_learner", "search.learner",
         probes.learner("map"), {}),
        ("relqual.simstudy", "bootstrap_average", "search.bootstrap_average",
         probes.bootstrap, {}),
        ("relqual.simstudy", "averaged_network", "search.averaged_network",
         probes.arm_tail, {}),
        ("relqual.simstudy", "classify", "metrics.classify", probes.arm_tail, {}),
        ("relqual.search", "hill_climb", "search.hill_climb", None, {}),
        ("relqual.search", "map_dag", "search.map_dag", None, {}),
        ("relqual.search", "exact_map_edge_probabilities",
         "search.exact_posterior", probes.exact, {}),
        ("relqual.cli", "main", "cli.main", None, {}),
        ("relqual.cli", "run_simstudy", "simstudy.run_simstudy", None, {}),
        ("relqual.cli", "tune_forest", "forest.tune_forest", None, {}),
        ("relqual.cli", "fit_forest", "forest.fit_forest", probes.forest_trees, {}),
        ("relqual.forest", "fit_forest", "forest.fit_forest",
         probes.forest_trees, {}),
        ("relqual.forest", "ForestModel.predict", "forest.predict", None, {}),
        ("relqual.cli", "permutation_importance",
         "forest.permutation_importance", None, {}),
        ("relqual.quality", "loess", "loess.loess", probes.loess_points, {}),
        ("relqual.quality", "timeline", "quality.timeline", None, {}),
        ("relqual.quality", "screen_significance",
         "quality.screen_significance", None, {}),
        ("relqual.quality", "aggregate_usage", "quality.aggregate_usage",
         None, {}),
        ("relqual.ingest", "fetch_downloads", "ingest.fetch_downloads", None, {}),
        ("relqual.ingest", "fetch_issues", "ingest.fetch_issues", None, {}),
        ("relqual.ingest", "build_daily_series", "ingest.build_daily_series",
         None, {}),
        ("relqual.ingest", "HttpCache.get", "ingest.cache_get",
         probes.cache_get, {}),
        ("relqual.ingest", "HttpCache.put", "ingest.cache_put",
         probes.cache_put, {}),
    ]
    for module, attr, name, hook, options in wraps:
        tracer.wrap(module, attr, name, hook, **options)


def per_layer_metrics(tracer, raw_walls: list[float], scale: float,
                      traced_walls: list[float], untraced_walls: list[float],
                      extra: dict) -> dict:
    """Per-layer values.  Counts and seconds are means per traced operation,
    and seconds are multiplied by ``scale`` (the speed probe's factor over
    the traced operations).  Shares are layer self time over the traced
    operations' raw wall time.  ``traced_walls``/``untraced_walls`` are
    already scaled, one per operation."""
    from statistics import median

    traced_ops = len(raw_walls)
    ops = max(traced_ops, 1)
    counters, total, own, calls = (tracer.counters, tracer.total,
                                   tracer.self_time, tracer.calls)
    out = {}
    for layer in ("gaussian", "discretize"):
        name = f"{layer}.family_score"
        n, computed = calls[name], counters[f"{name}.computed"]
        out[f"{name}.calls"] = n / ops
        out[f"{name}.computed"] = computed / ops
        out[f"{name}.hit_ratio"] = 1.0 - computed / n if n else 0.0
        out[f"{name}.s"] = total[name] / ops
    for method in DISCRETIZE_METHODS:
        key = f"discretize.discretize.{method}.s"
        out[key] = counters[key] / ops
    out["search.hill_climb.calls"] = calls["search.hill_climb"] / ops
    out["search.hill_climb.self_s"] = own["search.hill_climb"] / ops
    out["search.bootstrap_average.resamples"] = \
        counters["search.bootstrap_average.resamples"] / ops
    out["search.bootstrap_average.s"] = total["search.bootstrap_average"] / ops
    out["search.map_dag.calls"] = calls["search.map_dag"] / ops
    out["search.map_dag.self_s"] = own["search.map_dag"] / ops
    for p in EXACT_SIZES:
        key = f"search.exact_posterior.p{p}.s"
        out[key] = counters[key] / ops
    first = counters[f"search.exact_posterior.p{EXACT_SIZES[0]}.s"]
    last = counters[f"search.exact_posterior.p{EXACT_SIZES[-1]}.s"]
    out["search.exact_posterior.growth"] = (
        (last / first) ** (1.0 / (EXACT_SIZES[-1] - EXACT_SIZES[0]))
        if first > 0 and last > 0 else 0.0)
    for arm in ARM_NAMES:
        key = f"simstudy.arm.{arm}.s"
        out[key] = counters[key] / ops
    out["simstudy.arm_failures"] = extra.get("arm_failures_per_op", 0)
    out["metrics.classify.calls"] = calls["metrics.classify"] / ops
    out["metrics.classify.s"] = total["metrics.classify"] / ops
    out["forest.fit_forest.calls"] = calls["forest.fit_forest"] / ops
    out["forest.fit_forest.trees"] = counters["forest.fit_forest.trees"] / ops
    for name in ("fit_forest", "tune_forest", "predict", "permutation_importance"):
        out[f"forest.{name}.s"] = total[f"forest.{name}"] / ops
    out["loess.loess.calls"] = calls["loess.loess"] / ops
    out["loess.loess.eval_points"] = counters["loess.loess.eval_points"] / ops
    out["loess.loess.s"] = total["loess.loess"] / ops
    for name in ("timeline", "screen_significance", "aggregate_usage"):
        out[f"quality.{name}.s"] = total[f"quality.{name}"] / ops
    out["ingest.cache_put.calls"] = calls["ingest.cache_put"] / ops
    out["ingest.cache_put.bytes"] = counters["ingest.cache_put.bytes"] / ops
    out["ingest.cache_put.s"] = total["ingest.cache_put"] / ops
    out["ingest.cache_get.calls"] = calls["ingest.cache_get"] / ops
    out["ingest.cache_get.hits"] = counters["ingest.cache_get.hits"] / ops
    out["ingest.cache_get.s"] = total["ingest.cache_get"] / ops
    for key in ("ingest.transport.calls", "ingest.retries", "ingest.backoff_s",
                "ingest.errors"):
        out[key] = counters[key] / ops
    out["ingest.hostile.items"] = extra.get("hostile_items", 0)
    out["ingest.hostile.sunk"] = extra.get("hostile_sunk", 0)
    out["cli.self_s"] = own["cli.main"] / ops

    for name, unit in PER_LAYER:
        if unit == "s" and name != "ingest.backoff_s" and name in out:
            out[name] *= scale

    wall = sum(raw_walls)
    by_layer = tracer.self_by_layer(layer_of)
    covered = 0.0
    for layer in LAYERS[:-1]:
        out[f"share.{layer}"] = by_layer.get(layer, 0.0) / wall if wall else 0.0
        covered += out[f"share.{layer}"]
    # the benchmark's own share: its fake network plus glue no span covers
    out["share.bench"] = 1.0 - covered if wall else 0.0

    traced_median = median(traced_walls) if traced_walls else 0.0
    untraced_median = median(untraced_walls) if untraced_walls else 0.0
    out["trace.wall_s"] = traced_median
    out["trace.untraced_wall_s"] = untraced_median
    out["trace.overhead_s"] = traced_median - untraced_median
    out["trace.overhead_share"] = (out["trace.overhead_s"] / untraced_median
                                   if untraced_median else 0.0)
    return out
