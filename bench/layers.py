"""Where the tracer wraps embreg, and the per-layer metrics it yields.

Every module of ``src/embreg`` except the thin ``cli`` is a layer. Span
names start with the layer they time; a span's self time belongs to that
layer.
"""

from __future__ import annotations

from spans import START, Tracer, totals_by_name

LAYERS = ("tasks", "bbob", "featurize", "embedders", "remote", "mlp", "metrics", "nlfd", "experiments")
KINDS = ("traditional", "vocab_pool", "synthetic_transformer", "scrambled", "remote")
_RUNNERS = ("run_dof_sweep", "run_comparison", "run_data_scaling")
_SUMMARIZERS = ("summarize_dof_sweep", "summarize_comparison", "summarize_data_scaling")


def watch_clients(tracer: Tracer, clients: list) -> None:
    """Collect every RemoteEmbedder built, to sum its request attempts.

    The only wrapper installed in an untraced run; it runs once per cell.
    """
    from embreg import remote

    tracer.wrap_count(remote.RemoteEmbedder, "__init__", lambda args, _: clients.append(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from embreg import bbob, embedders, experiments, metrics, mlp, remote

    wrap, count = tracer.wrap, tracer.count
    for runner in _RUNNERS:
        wrap(experiments, runner, "experiments.run")
    wrap(experiments, "run_cell", "experiments.cell", opens_cell=True)
    wrap(experiments.RunStore, "__init__", "experiments.store_load")
    wrap(experiments.RunStore, "append", "experiments.store_append")
    for summarizer in _SUMMARIZERS:
        wrap(experiments, summarizer, "experiments.summarize")

    wrap(experiments, "sample_uniform", "tasks.sample", after=lambda a, r: count("tasks.rows", len(r)))
    wrap(experiments, "split_dataset", "tasks.split")
    wrap(bbob.BbobFunction, "evaluate", "bbob.eval", after=lambda a, r: count("bbob.evals"))

    wrap(experiments, "build_embedder", "embedders.build")
    wrap(
        embedders.Embedder,
        "embed",
        lambda self, xs: f"embedders.embed.{self.kind}",
        after=lambda a, r: count(f"embedders.rows.{a[0].kind}", r.rows),
    )
    wrap(embedders, "serialize", "featurize.serialize", after=lambda a, r: count("featurize.texts"))

    wrap(remote.RemoteEmbedder, "embed_texts", "remote.embed_texts")
    wrap(remote.EmbeddingCache, "__init__", "remote.cache_load")
    wrap(remote.EmbeddingCache, "put", "remote.cache_put")
    tracer.wrap_count(
        remote.EmbeddingCache,
        "get",
        lambda a, r: count("remote.cache_misses" if r is None else "remote.cache_hits"),
    )
    tracer.wrap_count(remote.RemoteEmbedder, "_post_batch", lambda a, r: count("remote.batches"))

    wrap(
        experiments,
        "train_and_evaluate",
        "mlp.train",
        after=lambda a, r: count("mlp.best_epochs", sum(cell["epochs"] for cell in r[2].sweep)),
    )
    for name in ("loss_and_grad", "adamw_step", "forward", "evaluate"):
        wrap(mlp, name, f"mlp.{name}")
    wrap(mlp, "bundle", "metrics.bundle")
    wrap(metrics, "kendall_tau", "metrics.kendall")
    wrap(experiments, "normalize_embeddings", "nlfd.normalize")
    wrap(experiments, "lipschitz_factors", "nlfd.lipschitz")


def layer_self_times(totals: dict[str, tuple]) -> dict[str, float]:
    """Self time per layer, from the per-name totals of ``totals_by_name``."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in totals.items():
        out[name.split(".", 1)[0]] += self_s
    return out


def spans_between(spans: list[tuple], start: float, end: float) -> list[tuple]:
    return [s for s in spans if start <= s[START] <= end]


def metrics(
    totals: dict[str, tuple], counts, wall_s: float, workers: int, requests: int, attempts: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``totals`` come from ``totals_by_name`` and ``counts`` from the tracer.
    ``requests`` are the answers the service sent and ``attempts`` the
    requests the clients made; both are counted outside the tracer.
    """

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def dur(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    epochs = calls("mlp.forward") - calls("mlp.evaluate")  # validation forwards
    lookups = counts["remote.cache_hits"] + counts["remote.cache_misses"]
    m = {
        "mlp.train_s": (dur("mlp.train"), "s"),
        "mlp.epochs_run": (epochs, "count"),
        "mlp.epoch_ms": (1000.0 * ratio(dur("mlp.train"), epochs), "ms"),
        "mlp.loss_and_grad_s": (dur("mlp.loss_and_grad"), "s"),
        "mlp.adamw_step_s": (dur("mlp.adamw_step"), "s"),
        "mlp.forward_s": (dur("mlp.forward"), "s"),
        "mlp.best_epoch_ratio": (ratio(counts["mlp.best_epochs"], epochs), "ratio"),
        "experiments.cell_s": (dur("experiments.cell"), "s"),
        "experiments.worker_busy_frac": (ratio(dur("experiments.cell"), wall_s * workers), "ratio"),
        "experiments.store_append_s": (dur("experiments.store_append"), "s"),
        "experiments.store_load_s": (dur("experiments.store_load"), "s"),
        "experiments.summarize_s": (dur("experiments.summarize"), "s"),
        "embedders.build_s": (dur("embedders.build"), "s"),
    }
    for kind in KINDS:
        t = dur(f"embedders.embed.{kind}")
        m[f"embedders.embed_s.{kind}"] = (t, "s")
        m[f"embedders.rows_per_s.{kind}"] = (ratio(counts[f"embedders.rows.{kind}"], t), "rows/s")
    m.update(
        {
            "remote.requests": (requests, "count"),
            "remote.retries": (attempts - counts["remote.batches"], "count"),
            "remote.cache_hits": (counts["remote.cache_hits"], "count"),
            "remote.cache_misses": (counts["remote.cache_misses"], "count"),
            "remote.cache_hit_ratio": (ratio(counts["remote.cache_hits"], lookups), "ratio"),
            "remote.cache_load_s": (dur("remote.cache_load"), "s"),
            "remote.cache_put_s": (dur("remote.cache_put"), "s"),
            "remote.embed_texts_s": (dur("remote.embed_texts"), "s"),
            "tasks.sample_s": (dur("tasks.sample"), "s"),
            "tasks.split_s": (dur("tasks.split"), "s"),
            "tasks.rows": (counts["tasks.rows"], "count"),
            "bbob.eval_s": (dur("bbob.eval"), "s"),
            "bbob.evals": (counts["bbob.evals"], "count"),
            "featurize.serialize_s": (dur("featurize.serialize"), "s"),
            "featurize.texts": (counts["featurize.texts"], "count"),
            "nlfd.normalize_s": (dur("nlfd.normalize"), "s"),
            "nlfd.lipschitz_s": (dur("nlfd.lipschitz"), "s"),
            "metrics.bundle_s": (dur("metrics.bundle"), "s"),
            "metrics.kendall_s": (dur("metrics.kendall"), "s"),
        }
    )
    for layer, self_s in layer_self_times(totals).items():
        m[f"{layer}.self_s"] = (self_s, "s")
    return m


def self_time_shares(spans: list[tuple]) -> dict[str, float]:
    selfs = layer_self_times(totals_by_name(spans))
    total = sum(selfs.values())
    return {layer: (s / total if total else 0.0) for layer, s in selfs.items()}

