"""The four benchmark workloads: configs, one timed pass, and output checks.

Each workload drives one ``embreg.experiments.run_*`` function with a config
generated from the workload seed, in a closed loop (the library runs one cell
after another, or ``workers`` at a time). See README.md for why each was
chosen and which layer it loads.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REMOTE_DIM = 64

#: sha256 of every summary CSV at DEFAULT_SEED. sweep_train and
#: sweep_train_parallel share theirs: sequential and parallel runs must write
#: byte-identical summaries.
_SWEEP_HASHES = {
    "dof_sweep_cells.csv": "c0905c6449e5bf12b8d128bbbc68019f3a1912fa6733335fdc0f3ea2fa866d9a",
    "dof_sweep_summary.csv": "c773d5478974cc8972dd3cdfe936f1a01fa3b62fab6d329272a713e8a0e59444",
}
PINNED_HASHES = {
    "sweep_train": _SWEEP_HASHES,
    "sweep_train_parallel": _SWEEP_HASHES,
    "transformer_embed": {
        "data_scaling_summary.csv": "bbd9bcbbb4cab0004fe3e9702344d5438e26f09fc9ffc61e556959ca9571d8ce",
    },
    "remote_rerun": {
        "comparison_cells.csv": "8f62123793ea79316c6cd7b5e5faf2df977afbf326d32d39bf10de7b69982740",
        "comparison_summary.csv": "2819a50a843c11d73357927583fbd12faffebf75b5c2ca12d95fb6a099a39466",
    },
}

#: Requests of a cold remote_rerun pass, at every seed: texts depend on
#: (dof, seed) but not on the function, so only the 8 (dof, seed) pairs ask
#: the service, each for 200 + 25 + 25 texts in batches of 32 (7 + 1 + 1).
PINNED_COLD_REQUESTS = 72


class CheckFailed(Exception):
    """A workload's outputs are wrong; the run must exit non-zero."""


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # name of the embreg.experiments function that runs it
    shape: str  # what one cell is, stated beside cells_per_s
    studied: str  # embedder kind whose cells cell_p50_s times
    parallel: bool = False
    remote: bool = False

    def config(self, seed: int, nproc: int, endpoint: str | None = None, cache: Path | None = None) -> dict:
        return _CONFIGS[self.name](seed, nproc, endpoint, cache)

    def workers(self, nproc: int) -> int:
        return nproc if self.parallel else 1

    def studied_cells(self, runs) -> list[dict]:
        """Cells of the studied embedder; on remote_rerun, of the warm calls.

        A pass mixes cells of very different cost (the baseline embedder
        against the studied one, cold against warm). A median over all of
        them falls in the gap between two groups and jumps with the extremes
        of each, so cell_p50_s takes one group only.
        """
        return [
            c
            for r in runs
            if not self.remote or r.label == "warm"
            for c in r.cells
            if c["embedder_kind"] == self.studied
        ]


def _sweep(seed, nproc, endpoint, cache) -> dict:
    return {
        "functions": ["sphere", "rastrigin"],
        "dofs": [5, 20],
        "embedders": [{"kind": "traditional"}, {"kind": "vocab_pool", "width": 64}],
        "n_samples": 500,
        "seeds": [2 * seed, 2 * seed + 1],
        "train": {"learning_rates": [1e-3, 5e-3], "weight_decays": [0.0], "max_epochs": 15, "patience": 15},
    }


def _transformer(seed, nproc, endpoint, cache) -> dict:
    return {
        "functions": ["sphere"],
        "dofs": [20],
        "embedders": [{"kind": "traditional"}, {"kind": "synthetic_transformer"}],
        "seeds": [seed],
        "sizes": [25, 50, 100],
        "train": {"learning_rates": [1e-3], "weight_decays": [0.0], "max_epochs": 20},
    }


def _remote(seed, nproc, endpoint, cache) -> dict:
    return {
        "functions": ["sphere", "rastrigin"],
        "dofs": [5, 10],
        "embedders": [
            {"kind": "scrambled"},
            {
                "kind": "remote",
                "endpoint": endpoint,
                "model": f"mock-{REMOTE_DIM}",
                "cache": str(cache),
                "max_inflight": nproc,
            },
        ],
        "n_samples": 250,
        "seeds": [4 * seed + i for i in range(4)],
        "train": {"learning_rates": [1e-3], "weight_decays": [0.0], "max_epochs": 5},
    }


_CONFIGS = {
    "sweep_train": _sweep,
    "sweep_train_parallel": _sweep,
    "transformer_embed": _transformer,
    "remote_rerun": _remote,
}

_SWEEP_SHAPE = (
    "16 cells: {sphere, rastrigin} x dof {5, 20} x {traditional, vocab_pool w64} x 2 seeds; "
    "n=500, lr {1e-3, 5e-3} x wd {0}, 15 epochs"
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_train", "run_dof_sweep", _SWEEP_SHAPE + "; workers=1", "vocab_pool"),
        Workload(
            "sweep_train_parallel", "run_dof_sweep", _SWEEP_SHAPE + "; workers=nproc", "vocab_pool", parallel=True
        ),
        Workload(
            "transformer_embed",
            "run_data_scaling",
            "6 cells: sphere dof 20 x {traditional, synthetic_transformer} x sizes {25, 50, 100}; "
            "1 seed, lr {1e-3} x wd {0}, 20 epochs",
            "synthetic_transformer",
        ),
        Workload(
            "remote_rerun",
            "run_comparison",
            "2 x 32 cells (cold cache, then warm with force): {sphere, rastrigin} x dof {5, 10} x "
            "{scrambled, remote} x 4 seeds; n=250, lr {1e-3} x wd {0}, 5 epochs",
            "remote",
            remote=True,
        ),
    )
}


@dataclass
class Prepared:
    """Everything a workload needs before its first cell is dispatched."""

    workload: Workload
    seed: int
    nproc: int
    scratch: Path
    experiments: object
    cfg: object
    mock: object = None
    cache: Path | None = None

    def close(self) -> None:
        if self.mock is not None:
            self.mock.close()
            self.mock = None


def prepare(workload: Workload, seed: int, nproc: int, scratch: Path) -> Prepared:
    """Import embreg, build the config and, for remote_rerun, start the mock."""
    from embreg import experiments

    mock = cache = endpoint = None
    if workload.remote:
        from mock_service import MockEmbeddingService

        mock = MockEmbeddingService(REMOTE_DIM)
        endpoint, cache = mock.endpoint, scratch / "embeddings.jsonl"
    cfg = experiments.ExperimentConfig.from_dict(workload.config(seed, nproc, endpoint, cache))
    return Prepared(workload, seed, nproc, scratch, experiments, cfg, mock, cache)


@dataclass
class Run:
    """One timed call of an experiment runner and what it left behind."""

    label: str
    start: float  # perf_counter at the call
    wall_s: float
    cells: list[dict]
    hashes: dict[str, str]
    requests_ok: int = 0
    request_attempts: int = 0


def _hashes(exp_dir: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((exp_dir / n).read_bytes()).hexdigest() for n in names}


def _read_records(exp_dir: Path, skip: int) -> list[dict]:
    with open(exp_dir / "records.jsonl", encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    return [json.loads(line) for line in lines[skip:]]


def run_pass(p: Prepared, index: int, clients: list) -> list[Run]:
    """Run the workload's experiment once (remote_rerun: cold, then warm).

    ``clients`` collects every RemoteEmbedder built, so that request attempts
    can be summed; it is filled by a count-only wrapper the caller installs.
    """
    runner = getattr(p.experiments, p.workload.runner)
    out_root = p.scratch / f"pass{index}"
    csvs = PINNED_HASHES[p.workload.name].keys()
    workers = p.workload.workers(p.nproc)
    labels = ("cold", "warm") if p.workload.remote else ("run",)
    if p.cache is not None and p.cache.exists():
        p.cache.unlink()
    runs = []
    seen = 0
    for label in labels:
        ok_before = p.mock.answered_ok() if p.mock else 0
        clients.clear()
        start = time.perf_counter()
        exp_dir = runner(p.cfg, out_root, force=(label == "warm"), workers=workers)
        wall = time.perf_counter() - start
        cells = _read_records(exp_dir, seen)
        seen += len(cells)
        runs.append(
            Run(
                label=label,
                start=start,
                wall_s=wall,
                cells=cells,
                hashes=_hashes(exp_dir, csvs),
                requests_ok=(p.mock.answered_ok() - ok_before) if p.mock else 0,
                request_attempts=sum(c.request_count for c in clients),
            )
        )
    shutil.rmtree(out_root)
    return runs


def expected_cells(p: Prepared) -> int:
    cfg = p.cfg
    return len(cfg.functions) * len(cfg.dofs) * len(cfg.embedders) * len(cfg.seeds) * (
        len(cfg.sizes) if p.workload.runner == "run_data_scaling" else 1
    )


def check(p: Prepared, passes: list[list[Run]]) -> None:
    """Raise CheckFailed unless every output of every pass is right."""
    runs = [r for ps in passes for r in ps]
    want = expected_cells(p)
    for r in runs:
        bad = [c for c in r.cells if c.get("status") != "ok"]
        if bad:
            raise CheckFailed(
                f"{r.label}: {len(bad)} cells failed, first {bad[0]['cell']}: {bad[0].get('error')}"
            )
        if len(r.cells) != want:
            raise CheckFailed(f"{r.label}: {len(r.cells)} cells ran, expected {want}")
        if r.requests_ok != r.request_attempts:
            raise CheckFailed(
                f"{r.label}: {r.request_attempts} request attempts, {r.requests_ok} answered 200"
            )
    first = runs[0].hashes
    for r in runs[1:]:
        if r.hashes != first:
            raise CheckFailed(f"{r.label}: summary CSVs differ between runs of one seed")
    if p.seed == DEFAULT_SEED and first != PINNED_HASHES[p.workload.name]:
        raise CheckFailed(f"summary CSV hashes {first} differ from the pinned ones")
    if p.workload.remote:
        for ps in passes:
            cold, warm = ps
            if cold.requests_ok != PINNED_COLD_REQUESTS:
                raise CheckFailed(
                    f"cold pass made {cold.requests_ok} requests, expected {PINNED_COLD_REQUESTS}"
                )
            if warm.request_attempts != 0:
                raise CheckFailed(f"warm pass made {warm.request_attempts} requests, expected 0")
