import json
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from embreg import mlp
from embreg.metrics import kendall_tau
from embreg.mlp import (
    AdamState,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    TrainingFailedError,
    adamw_step,
    fit_normalizer,
    forward,
    init_model,
    loss_and_grad,
)


def test_fit_normalizer_two_points():
    norm = fit_normalizer([1.0, 3.0])
    assert norm.mu == 2.0
    assert norm.sigma == 1.0


def test_fit_normalizer_constant_targets():
    norm = fit_normalizer([5.0, 5.0, 5.0])
    assert norm.mu == 5.0
    assert norm.sigma == 1.0


def test_normalize_denormalize_identity():
    norm = fit_normalizer([2.0, 4.0, 9.0])
    y = np.array([1.0, 2.5, -3.0])
    assert np.max(np.abs(norm.denormalize(norm.normalize(y)) - y)) < 1e-12


def test_fit_normalizer_needs_two_values():
    with pytest.raises(ValueError):
        fit_normalizer([1.0])


def test_forward_zero_weights():
    model = init_model(4, seed=0)
    for p in model.values():
        p[:] = 0.0
    out = forward(model, np.ones((3, 4)))
    assert np.array_equal(out, np.zeros(3))


def test_forward_row_independence():
    model = init_model(6, seed=1)
    x = np.random.default_rng(0).standard_normal((5, 6))
    batched = forward(model, x)
    single = np.array([forward(model, row[None, :])[0] for row in x])
    assert np.allclose(batched, single)


def test_forward_dim_mismatch():
    model = init_model(4, seed=0)
    with pytest.raises(ValueError):
        forward(model, np.ones((2, 5)))


def test_loss_zero_at_perfect_fit():
    model = init_model(3, seed=0)
    x = np.random.default_rng(1).standard_normal((8, 3))
    y = forward(model, x)
    loss, grads = loss_and_grad(model, x, y)
    assert loss == 0.0
    assert np.allclose(grads["w3"], 0.0)
    assert np.allclose(grads["b3"], 0.0)


def test_loss_quadratic_scaling():
    model = init_model(3, seed=0)
    x = np.random.default_rng(2).standard_normal((8, 3))
    y = forward(model, x)
    loss1, _ = loss_and_grad(model, x, y + 1.0)
    loss2, _ = loss_and_grad(model, x, y + 2.0)
    assert loss2 == pytest.approx(4.0 * loss1)


def _finite_difference_check(input_dim, rows, seed, coords_per_tensor=25, step=1e-5):
    rng = np.random.default_rng(seed)
    model = init_model(input_dim, seed=seed)
    x = rng.standard_normal((rows, input_dim))
    y = rng.standard_normal(rows)
    _, grads = loss_and_grad(model, x, y)
    worst = 0.0
    for name, param in model.items():
        flat = param.reshape(-1)
        count = min(coords_per_tensor, flat.size)
        for idx in rng.choice(flat.size, size=count, replace=False):
            original = flat[idx]
            flat[idx] = original + step
            up, _ = loss_and_grad(model, x, y)
            flat[idx] = original - step
            down, _ = loss_and_grad(model, x, y)
            flat[idx] = original
            numeric = (up - down) / (2 * step)
            analytic = grads[name].reshape(-1)[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences_dim8():
    assert _finite_difference_check(8, 16, seed=0) < 1e-4


def test_gradients_match_finite_differences_more_dims():
    for seed, dim in [(1, 4), (2, 32)]:
        assert _finite_difference_check(dim, 12, seed=seed) < 1e-4


def test_adamw_zero_grad_is_fixed_point():
    model = init_model(3, seed=0)
    state = AdamState.init(model)
    before = MlpModel(model.input_dim, model.flat.copy())
    zero = MlpModel(model.input_dim)
    adamw_step(model, zero, lr=1e-3, weight_decay=0.0, state=state)
    for name, value in model.items():
        assert np.array_equal(value, before[name])
    assert state.step == 1


def test_adamw_decoupled_decay_shrinks():
    model = init_model(3, seed=0)
    state = AdamState.init(model)
    before = MlpModel(model.input_dim, model.flat.copy())
    zero = MlpModel(model.input_dim)
    adamw_step(model, zero, lr=1e-2, weight_decay=0.1, state=state)
    for name, value in model.items():
        assert np.allclose(value, before[name] * (1 - 1e-2 * 0.1))


def test_adamw_step_counter():
    model = init_model(2, seed=0)
    state = AdamState.init(model)
    zero = MlpModel(model.input_dim)
    for expected in (1, 2, 3):
        adamw_step(model, zero, 1e-3, 0.0, state)
        assert state.step == expected


def test_adamw_rejects_non_finite_gradient():
    model = init_model(2, seed=0)
    state = AdamState.init(model)
    bad = MlpModel(model.input_dim)
    bad.flat[:] = np.nan
    with pytest.raises(TrainingDivergedError):
        adamw_step(model, bad, 1e-3, 0.0, state)


def _linear_problem(n, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    return x, x[:, 0].copy()


def test_train_sweep_has_grid_entries():
    x, y = _linear_problem(60, 4, seed=0)
    xv, yv = _linear_problem(20, 4, seed=1)
    cfg = TrainConfig(max_epochs=5, patience=3)
    _, _, report = mlp.train((x, y), (xv, yv), cfg)
    assert len(report.sweep) == 15  # 5 learning rates x 3 decays
    chosen = min(report.sweep, key=lambda c: c["val_mse"])
    assert (report.chosen_lr, report.chosen_wd) == (chosen["lr"], chosen["weight_decay"])


def test_train_learns_linear_target():
    x, y = _linear_problem(400, 4, seed=0)
    xv, yv = _linear_problem(50, 4, seed=1)
    xt, yt = _linear_problem(50, 4, seed=2)
    cfg = TrainConfig(
        learning_rates=(1e-3, 5e-3), weight_decays=(0.0,), max_epochs=200, patience=20
    )
    model, norm, report = mlp.train_and_evaluate((x, y), (xv, yv), (xt, yt), cfg)
    assert report.metrics["kendall_tau"] >= 0.95


def test_train_deterministic():
    x, y = _linear_problem(80, 3, seed=0)
    xv, yv = _linear_problem(20, 3, seed=1)
    cfg = TrainConfig(learning_rates=(1e-3,), weight_decays=(0.0, 0.1), max_epochs=30, patience=10)
    m1, _, r1 = mlp.train((x, y), (xv, yv), cfg, seed=7)
    m2, _, r2 = mlp.train((x, y), (xv, yv), cfg, seed=7)
    assert (r1.chosen_lr, r1.chosen_wd) == (r2.chosen_lr, r2.chosen_wd)
    assert r1.sweep == r2.sweep
    for name in m1:
        assert np.array_equal(m1[name], m2[name])


def test_early_stopping_restores_best_weights():
    x, y = _linear_problem(60, 3, seed=0)
    xv, yv = _linear_problem(30, 3, seed=1)
    cfg = TrainConfig(learning_rates=(5e-3,), weight_decays=(0.0,), max_epochs=120, patience=8)
    model, norm, report = mlp.train((x, y), (xv, yv), cfg)
    returned_val = float(np.mean((forward(model, xv) - norm.normalize(yv)) ** 2))
    assert returned_val == pytest.approx(min(c["val_mse"] for c in report.sweep))


def test_normalizer_absorbs_affine_target_transform():
    x, y = _linear_problem(80, 3, seed=0)
    xv, yv = _linear_problem(20, 3, seed=1)
    cfg = TrainConfig(learning_rates=(1e-3,), weight_decays=(0.0,), max_epochs=40, patience=40)
    m1, n1, _ = mlp.train((x, y), (xv, yv), cfg)
    m2, n2, _ = mlp.train((x, y * 1000.0 + 7.0), (xv, yv * 1000.0 + 7.0), cfg)
    p1 = n1.denormalize(forward(m1, xv))
    p2 = n2.denormalize(forward(m2, xv))
    assert np.allclose(p2, p1 * 1000.0 + 7.0, rtol=1e-6)


def test_training_failed_carries_sweep():
    x = np.full((20, 2), 1e300)
    y = np.full(20, 1e300)
    cfg = TrainConfig(learning_rates=(1e-2,), weight_decays=(0.0,), max_epochs=5, patience=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingFailedError) as err:
            mlp.train((x, y), (x, y), cfg)
    assert len(err.value.sweep) == 1


def test_a_diverging_sweep_raises_without_numpy_warnings():
    x, y = _linear_problem(60, 4, seed=0)
    cfg = TrainConfig(learning_rates=(1e300,), weight_decays=(0.0,), max_epochs=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingFailedError):
            mlp.train((x, y), (x, y), cfg)


def test_minibatch_path_runs():
    x, y = _linear_problem(1500, 3, seed=0)  # beyond the full-batch cutoff
    xv, yv = _linear_problem(100, 3, seed=1)
    cfg = TrainConfig(learning_rates=(1e-3,), weight_decays=(0.0,), max_epochs=3, patience=3,
                      batch_size=256)
    _, _, report = mlp.train((x, y), (xv, yv), cfg)
    assert report.sweep[0]["epochs"] >= 1


def test_architecture_identical_across_input_dims():
    m_small = init_model(4, seed=0)
    m_large = init_model(512, seed=0)
    assert m_small.w2.shape == m_large.w2.shape == (256, 256)
    assert m_small.w3.shape == m_large.w3.shape == (256, 1)
    assert m_small.input_dim == 4 and m_large.input_dim == 512


def test_model_save_load_roundtrip(tmp_path):
    x, y = _linear_problem(40, 3, seed=0)
    model = init_model(3, seed=3)
    norm = fit_normalizer(y)
    path = tmp_path / "model.npz"
    mlp.save_model(path, model, norm, provenance="traditional:abc")
    loaded, loaded_norm, prov = mlp.load_model(path)
    assert prov == "traditional:abc"
    assert loaded_norm == norm
    assert np.array_equal(forward(loaded, x), forward(model, x))
    assert np.array_equal(loaded.flat, model.flat)
    assert np.shares_memory(loaded.w1, loaded.flat)


def test_param_views_write_through_to_forward():
    model = init_model(3, seed=0)
    x = np.random.default_rng(0).standard_normal((5, 3))
    model["w1"].reshape(-1)[:] = 0.0  # h1 = relu(b1) = 0, so h2 = 0 too
    model["b3"].reshape(-1)[0] = 2.5
    assert np.array_equal(forward(model, x), np.full(5, 2.5))
    assert np.all(model.flat[: model.w1.size] == 0.0) and model.flat[-1] == 2.5


def test_a_model_on_a_copied_buffer_is_a_snapshot():
    model = init_model(3, seed=0)
    x, y = _linear_problem(20, 3, seed=0)
    snapshot = MlpModel(model.input_dim, model.flat.copy())
    frozen = snapshot.flat.copy()
    state = AdamState.init(model)
    for _ in range(3):
        _, grads = loss_and_grad(model, x, y)
        adamw_step(model, grads, 1e-2, 0.1, state)
    assert np.array_equal(snapshot.flat, frozen)
    assert not np.array_equal(model.flat, frozen)


def test_returned_gradients_survive_later_calls():
    model = init_model(4, seed=0)
    x, y = _linear_problem(16, 4, seed=0)
    _, first = loss_and_grad(model, x, y)
    kept = first.flat.copy()
    _, second = loss_and_grad(model, x, y + 1.0)
    assert np.array_equal(first.flat, kept)
    assert not np.array_equal(second.flat, kept)
    _, reused = loss_and_grad(model, x, y, first)  # a buffer passed in is written in place
    assert reused is first and np.array_equal(first.flat, kept)


# -- oracle: the per-tensor head, with fresh temporaries on every step ---------


def _oracle_forward(w, x):
    h1 = np.maximum(x @ w["w1"] + w["b1"], 0.0)
    h2 = np.maximum(h1 @ w["w2"] + w["b2"], 0.0)
    return (h2 @ w["w3"]).ravel() + w["b3"][0]


def _oracle_loss_and_grad(w, x, y):
    z1 = x @ w["w1"] + w["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w["w2"] + w["b2"]
    h2 = np.maximum(z2, 0.0)
    resid = (h2 @ w["w3"]).ravel() + w["b3"][0] - y
    d_yhat = (2.0 / y.size) * resid
    d_z2 = np.outer(d_yhat, w["w3"].ravel()) * (z2 > 0)
    d_z1 = (d_z2 @ w["w2"].T) * (z1 > 0)
    grads = {
        "w3": h2.T @ d_yhat[:, None], "b3": np.array([d_yhat.sum()]),
        "w2": h1.T @ d_z2, "b2": d_z2.sum(axis=0),
        "w1": x.T @ d_z1, "b1": d_z1.sum(axis=0),
    }
    return float(resid @ resid) / y.size, grads


def _oracle_adamw(w, grads, lr, wd, m, v, t):
    bc1, bc2 = 1.0 - mlp.ADAM_BETA1**t, 1.0 - mlp.ADAM_BETA2**t
    for k, g in grads.items():
        m[k] = mlp.ADAM_BETA1 * m[k] + (1.0 - mlp.ADAM_BETA1) * g
        v[k] = mlp.ADAM_BETA2 * v[k] + (1.0 - mlp.ADAM_BETA2) * g * g
        w[k] -= lr * wd * w[k]
        w[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + mlp.ADAM_EPS)


def _oracle_init(dim, seed):
    rng = np.random.default_rng(seed)

    def he(fan_in, fan_out):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return {"w1": he(dim, 256), "b1": np.zeros(256), "w2": he(256, 256), "b2": np.zeros(256),
            "w3": he(256, 1), "b3": np.zeros(1)}


def _batches(n, batch_size, rng):
    if n <= mlp.FULL_BATCH_MAX:
        return [slice(None)]
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


@pytest.mark.parametrize("n", [300, 1100])  # full batch, and minibatches of 256 plus a remainder
def test_fast_steps_equal_oracle_steps(n):
    x, y = _linear_problem(n, 5, seed=n)
    y = np.sin(3 * y)
    model, w = init_model(5, seed=1), _oracle_init(5, seed=1)
    state = AdamState.init(model)
    m, v = {k: np.zeros_like(a) for k, a in w.items()}, {k: np.zeros_like(a) for k, a in w.items()}
    fast_losses, oracle_losses, grads = [], [], None
    rng = np.random.default_rng(0)
    for t in range(1, 9):
        for idx in _batches(n, 256, rng):
            loss, grads = loss_and_grad(model, x[idx], y[idx], grads)
            adamw_step(model, grads, 5e-3, 0.1, state)
            fast_losses.append(loss)
            loss, g = _oracle_loss_and_grad(w, x[idx], y[idx])
            _oracle_adamw(w, g, 5e-3, 0.1, m, v, state.step)
            oracle_losses.append(loss)
    assert len(fast_losses) == (8 if n == 300 else 40)
    assert fast_losses == oracle_losses
    for name, value in model.items():
        assert np.array_equal(value, w[name]), name


def _oracle_train(x, y, xv, yv, cfg, seed):
    norm = mlp.fit_normalizer(y)
    y, yv = norm.normalize(y), norm.normalize(yv)
    init, sweep, best = _oracle_init(x.shape[1], seed), [], None
    for i, lr in enumerate(cfg.learning_rates):
        for j, wd in enumerate(cfg.weight_decays):
            w = {k: a.copy() for k, a in init.items()}
            m, v = {k: np.zeros_like(a) for k, a in w.items()}, {k: np.zeros_like(a) for k, a in w.items()}
            rng = np.random.default_rng(mlp._seed_for_cell(seed, i, j))
            t, best_val, best_w, best_epoch, stale = 0, np.inf, None, 0, 0
            for epoch in range(1, cfg.max_epochs + 1):
                for idx in _batches(x.shape[0], cfg.batch_size, rng):
                    t += 1
                    _oracle_adamw(w, _oracle_loss_and_grad(w, x[idx], y[idx])[1], lr, wd, m, v, t)
                val = float(np.mean((_oracle_forward(w, xv) - yv) ** 2))
                if val < best_val:
                    best_val, best_w, best_epoch, stale = val, {k: a.copy() for k, a in w.items()}, epoch, 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        break
            sweep.append({"lr": lr, "weight_decay": wd, "val_mse": best_val, "epochs": best_epoch})
            if best is None or best_val < best[0]:
                best = (best_val, best_w)
    return best[1], sweep


@pytest.mark.parametrize("dim,n", [(5, 200), (64, 200), (3, 1100)])
def test_train_equals_oracle_training_loop(dim, n):
    rng = np.random.default_rng(dim)
    x, xv = rng.standard_normal((n, dim)), rng.standard_normal((40, dim))
    y, yv = np.sin(x).sum(axis=1), np.sin(xv).sum(axis=1)
    cfg = TrainConfig(learning_rates=(1e-3, 1e-2), weight_decays=(0.0, 0.1),
                      max_epochs=12 if n < 1000 else 3, patience=3)
    model, _, report = mlp.train((x, y), (xv, yv), cfg, seed=2)
    weights, sweep = _oracle_train(x, y, xv, yv, cfg, seed=2)
    assert report.sweep == sweep
    for name, value in model.items():
        assert np.array_equal(value, weights[name]), name


def test_forward_reuses_workspaces_and_equals_the_oracle():
    model = init_model(7, seed=3)
    w = {k: v.copy() for k, v in model.items()}
    x = np.random.default_rng(4).standard_normal((33, 7))
    first = forward(model, x)
    buffer = mlp._THREAD.workspace
    second = forward(model, 2.0 * x)
    assert mlp._THREAD.workspace is buffer and not hasattr(model, "workspaces")
    assert np.array_equal(first, _oracle_forward(w, x))  # not overwritten by the later call
    assert np.array_equal(second, _oracle_forward(w, 2.0 * x))


def test_forward_on_one_model_from_two_threads_at_once_equals_sequential_calls():
    model = init_model(6, seed=5)
    rng = np.random.default_rng(6)
    inputs = [rng.standard_normal((40, 6)), rng.standard_normal((40, 6))]
    expected = [forward(model, x) for x in inputs]
    start = threading.Barrier(2)

    def run(x):
        start.wait(timeout=60)
        return [forward(model, x) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads' Python steps finely
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(run, inputs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for preds, want in zip(results, expected):
        wrong = sum(not np.array_equal(p, want) for p in preds)
        assert wrong == 0, f"{wrong} of {len(preds)} calls differ from a sequential call"


@pytest.mark.parametrize("width", [1, 128])
def test_load_model_rejects_other_hidden_widths(tmp_path, width):
    meta = {"version": mlp.MODEL_FORMAT_VERSION, "input_dim": 3, "mu": 0.0, "sigma": 1.0, "provenance": "x"}
    shapes = {"w1": (3, width), "b1": (width,), "w2": (width, width), "b2": (width,), "w3": (width, 1), "b3": (1,)}
    path = tmp_path / "model.npz"
    np.savez(path, meta=json.dumps(meta), **{name: np.ones(shape) for name, shape in shapes.items()})
    with pytest.raises(ValueError, match=r"w1 has shape \(3, %d\).*\(3, 256\)" % width):
        mlp.load_model(path)


# -- the per-thread arena: train() keeps its buffers between calls -------------


def test_returned_model_survives_later_training_on_the_same_thread():
    cfg = TrainConfig(learning_rates=(1e-3, 5e-3), weight_decays=(0.0,), max_epochs=5, patience=5)
    model, _, _ = mlp.train(_linear_problem(90, 7, seed=0), _linear_problem(30, 7, seed=1), cfg)
    kept = model.flat.copy()
    # Narrower and shorter, so this call fits in the arena the first one left.
    mlp.train(_linear_problem(60, 4, seed=2), _linear_problem(20, 4, seed=3), cfg, seed=1)
    assert np.array_equal(model.flat, kept)


def test_the_arena_holds_five_parameter_buffers_and_the_adamw_scratch():
    """Model, gradient, the current cell's best, and the two AdamW moments;
    the sweep's best lives in the returned model's own buffer."""
    rng = np.random.default_rng(0)
    x, xv = rng.standard_normal((200, 64)), rng.standard_normal((25, 64))
    y, yv = np.sin(x).sum(axis=1), np.sin(xv).sum(axis=1)
    cfg = TrainConfig(learning_rates=(1e-3,), weight_decays=(0.0,), max_epochs=3)

    def run():  # a fresh thread, so no earlier call has grown its arena
        model, _, _ = mlp.train((x, y), (xv, yv), cfg)
        return model.flat.size, mlp._THREAD.arena.size

    with ThreadPoolExecutor(max_workers=1) as pool:
        size, arena = pool.submit(run).result(timeout=60)
    assert arena == 5 * size + 2 * min(size, mlp.ADAMW_BLOCK)


def test_training_on_two_threads_at_once_equals_sequential_training():
    cfg = TrainConfig(learning_rates=(1e-3, 5e-3), weight_decays=(0.0, 0.1), max_epochs=20, patience=20)
    problems = [
        (_linear_problem(150, 5, seed=0), _linear_problem(30, 5, seed=1), 3),
        (_linear_problem(110, 9, seed=2), _linear_problem(40, 9, seed=3), 4),
    ]
    start = threading.Barrier(2)

    def run(problem, wait=False):
        if wait:
            start.wait(timeout=60)
        return mlp.train(problem[0], problem[1], cfg, seed=problem[2])

    sequential = [run(p) for p in problems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads' Python steps finely
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(lambda p: run(p, wait=True), problems, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (m_seq, _, r_seq), (m_con, _, r_con) in zip(sequential, concurrent):
        assert r_con.sweep == r_seq.sweep
        assert np.array_equal(m_con.flat, m_seq.flat)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="per-thread fault counts are Linux-only")
def test_later_train_calls_fault_in_no_new_buffers():
    import resource

    rng = np.random.default_rng(0)
    x, xv = rng.standard_normal((200, 64)), rng.standard_normal((25, 64))
    y, yv = np.sin(x).sum(axis=1), np.sin(xv).sum(axis=1)
    cfg = TrainConfig(max_epochs=5)
    mlp.train((x, y), (xv, yv), cfg)  # sizes the arena; fresh buffers take about 1,700 faults per call
    for seed in range(1, 4):
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        mlp.train((x, y), (xv, yv), cfg, seed=seed)
        assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 200
