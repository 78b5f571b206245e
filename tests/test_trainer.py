import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import QuadraticTask, random_episode
from pointmeta import model as model_module
from pointmeta import trainer as trainer_module
from pointmeta.autodiff import ParamStore, Tape, Tensor, add, backward, finite_diff_gradient, sgd_step
from pointmeta.data import DEFAULT_CLASSES, Area, Room, SyntheticAreaSpec, generate_synthetic_area
from pointmeta.errors import ConfigError, DivergenceError
from pointmeta.model import PointNetConfig, forward, init_params
from pointmeta.sampler import EpisodeSpec, build_task_distribution, index_categories
from pointmeta.trainer import (
    MetaConfig,
    SegmentationTask,
    TrainState,
    adapt_and_eval,
    inner_adapt,
    meta_gradient,
    meta_step,
    pretrain,
)

TINY_MODEL = PointNetConfig(
    num_classes=len(DEFAULT_CLASSES),
    mlp1_widths=(8, 8),
    mlp2_widths=(8, 16, 32),
    seg_head_widths=(16, 8),
    points_per_block=64,
)


def quad_theta(w=0.0):
    return ParamStore({"w": np.array(w, dtype=np.float64)})


def config_with(**kwargs):
    base = dict(alpha=0.1, beta=0.25, inner_steps=1, tasks_per_batch=1)
    base.update(kwargs)
    return MetaConfig(**base)


def query_loss(task, params) -> float:
    """The task's query loss at ``params``: the block-order sum of its query terms times 1/(their count)."""
    values = [term(params).data for term in task.query_terms]
    return float(sum(values[1:], values[0]) * np.asarray(1.0 / len(values), dtype=values[0].dtype))


def mean_adapted_query_loss(theta, tasks, beta):
    """Mean query loss over tasks, each adapted from the shared theta."""
    return float(np.mean([query_loss(task, inner_adapt(theta, task, beta).tensors()) for task in tasks]))


@pytest.fixture(scope="module")
def small_distribution():
    spec = SyntheticAreaSpec(
        name="AreaTrain",
        rooms=(("office", 2), ("hallway", 2), ("storage", 2)),
        density=30,
    )
    area = generate_synthetic_area(spec, seed=3)
    index = index_categories(area, points_per_block=48)
    return build_task_distribution(index, EpisodeSpec(ways=2, shots=2), count=300, seed=0)


def test_inner_adapt_beta_zero_identity():
    theta = quad_theta(1.25)
    phi = inner_adapt(theta, QuadraticTask(a=1.0, b=2.0), beta=0.0, steps=3)
    assert phi is not theta
    assert phi["w"] == theta["w"]


def test_inner_adapt_quadratic_one_and_two_steps():
    task = QuadraticTask(a=1.0, b=2.0)
    one = inner_adapt(quad_theta(0.0), task, beta=0.25, steps=1)
    two = inner_adapt(quad_theta(0.0), task, beta=0.25, steps=2)
    assert one["w"] == pytest.approx(0.5)
    assert two["w"] == pytest.approx(0.75)


def test_inner_adapt_does_not_mutate_theta():
    theta = quad_theta(0.0)
    inner_adapt(theta, QuadraticTask(a=1.0, b=2.0), beta=0.25, steps=2)
    assert theta["w"] == 0.0


def test_query_loss_quadratic():
    phi = quad_theta(0.5)
    assert query_loss(QuadraticTask(a=1.0, b=2.0), phi.tensors()) == pytest.approx(2.25)


def test_query_loss_uniform_logits_is_log_c():
    zeros = ParamStore({n: np.zeros_like(a) for n, a in init_params(TINY_MODEL, 0).items()})
    rng = np.random.default_rng(0)
    features = rng.normal(size=(32, 9)).astype(np.float32)
    labels = rng.integers(0, TINY_MODEL.num_classes, size=32)

    class OneBlock:
        @property
        def query_terms(self):
            from pointmeta.autodiff import cross_entropy

            return [lambda params: cross_entropy(forward(TINY_MODEL, params, features), labels)]

    assert query_loss(OneBlock(), zeros.tensors()) == pytest.approx(np.log(TINY_MODEL.num_classes), rel=1e-5)


def test_collaborative_loss_single_task_degenerates():
    task = QuadraticTask(a=1.0, b=2.0)
    single = mean_adapted_query_loss(quad_theta(0.0), [task], beta=0.25)
    direct = query_loss(task, inner_adapt(quad_theta(0.0), task, 0.25).tensors())
    assert single == pytest.approx(direct)
    doubled = mean_adapted_query_loss(quad_theta(0.0), [task, task], beta=0.25)
    assert doubled == pytest.approx(single)


def test_collaborative_loss_two_quadratics():
    # both adapt to phi = 0.5; (0.5-2)^2 = 2.25 and (0.5-3)^2 = 6.25
    tasks = [QuadraticTask(a=1.0, b=2.0), QuadraticTask(a=1.0, b=3.0)]
    value = mean_adapted_query_loss(quad_theta(0.0), tasks, beta=0.25)
    assert value == pytest.approx(4.25)


def test_meta_gradient_first_order_closed_form():
    grads, _ = meta_gradient(quad_theta(0.0), [QuadraticTask(1.0, 2.0)], config_with(gradient_mode="first_order"))
    assert grads["w"] == pytest.approx(-3.0, rel=1e-12)


def test_meta_gradient_second_order_closed_form():
    grads, _ = meta_gradient(quad_theta(0.0), [QuadraticTask(1.0, 2.0)], config_with(gradient_mode="second_order"))
    assert grads["w"] == pytest.approx(-1.5, rel=1e-12)


def test_meta_gradient_modes_agree_at_beta_zero():
    for mode in ("first_order", "second_order"):
        grads, _ = meta_gradient(quad_theta(0.0), [QuadraticTask(1.0, 2.0)], config_with(beta=0.0, gradient_mode=mode))
        assert grads["w"] == pytest.approx(-4.0, rel=1e-12)


@pytest.mark.parametrize("mode", ["first_order", "second_order"])
def test_meta_gradient_random_quadratics_match_closed_form(mode):
    rng = np.random.default_rng(8)
    for _ in range(25):
        a, b, w0 = rng.normal(size=3) * 2
        beta = float(rng.uniform(0.01, 0.45))
        grads, _ = meta_gradient(quad_theta(w0), [QuadraticTask(a, b)], config_with(beta=beta, gradient_mode=mode))
        phi = w0 - beta * 2 * (w0 - a)
        expected = 2 * (phi - b) if mode == "first_order" else (1 - 2 * beta) * 2 * (phi - b)
        assert grads["w"] == pytest.approx(expected, rel=1e-6)


def test_meta_gradient_batch_order_invariant():
    tasks = [QuadraticTask(1.0, 2.0), QuadraticTask(0.5, -1.0), QuadraticTask(-2.0, 3.0)]
    fwd, _ = meta_gradient(quad_theta(0.3), tasks, config_with())
    rev, _ = meta_gradient(quad_theta(0.3), tasks[::-1], config_with())
    assert fwd["w"] == pytest.approx(rev["w"], rel=1e-6)


@pytest.mark.parametrize("steps", [2, 3])
def test_meta_gradient_second_order_multi_step_closed_form(steps):
    # k taped inner steps contract w - a by (1 - 2 beta) each, so
    # phi_k = a + (1 - 2 beta)^k (w0 - a) and dLq/dw0 = (1 - 2 beta)^k * 2 (phi_k - b);
    # the inner sweeps after the first take the intermediate phi_j as their wrt
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, w0 = rng.normal(size=3) * 2
        beta = float(rng.uniform(0.01, 0.45))
        config = config_with(beta=beta, inner_steps=steps, gradient_mode="second_order")
        grads, _ = meta_gradient(quad_theta(w0), [QuadraticTask(a, b)], config)
        contraction = (1 - 2 * beta) ** steps
        phi = a + contraction * (w0 - a)
        assert grads["w"] == pytest.approx(contraction * 2 * (phi - b), rel=1e-12)


# the widths and block size of the ``gradcheck`` battery
GRADCHECK_MODEL = PointNetConfig(
    num_classes=3, mlp1_widths=(8, 8), mlp2_widths=(8, 16, 32), seg_head_widths=(16, 8), points_per_block=16
)


def relu_ignoring_its_mask(a):
    # the same forward bits as relu, but the gradient passes everywhere
    return add(a, Tensor(np.maximum(a.data, 0) - a.data))


@pytest.mark.parametrize("steps", [1, 2])
def test_meta_gradient_second_order_matches_finite_differences(steps, monkeypatch):
    # float64 PointNet, 2 support and 2 query blocks: the second-order
    # meta-gradient against central differences of the adapted query loss.
    # Each checked parameter's meta-gradient runs through the whole network's
    # Hessian-vector product, so a subset of tensors exercises every vjp under
    # create_graph: relu masks, the pool's gather and transposed views.  At 48
    # points, past the mlp2 width of 32, the pool records only gathered rows.
    theta = init_params(GRADCHECK_MODEL, seed=1, dtype=np.float64)
    beta, names = 0.5, ("mlp1.0.w", "mlp2.2.b", "head.1.w", "out.b")
    for points in (16, 48):
        task = SegmentationTask(random_episode(points, 2, 2, num_classes=3, seed=0), GRADCHECK_MODEL)

        def adapted_query_loss(subset):
            store = ParamStore({n: subset[n] if n in subset else a for n, a in theta.items()})
            return query_loss(task, inner_adapt(store, task, beta, steps))

        fd = finite_diff_gradient(adapted_query_loss, ParamStore({n: theta[n] for n in names}), eps=1e-6)

        def worst_error(mode):
            config = config_with(beta=beta, inner_steps=steps, gradient_mode=mode)
            grads, _ = meta_gradient(theta, [task], config)
            # floor 1e-3: below it the oracle's own rounding noise dominates
            return max(
                (np.abs(grads[n] - fd[n]) / np.maximum(np.maximum(np.abs(grads[n]), np.abs(fd[n])), 1e-3)).max()
                for n in names
            )

        # worst seen at 16 points: 1.1e-7 (one step) and 1.9e-7 (two steps);
        # at 48 points: 2.1e-7 and 1.4e-7
        assert worst_error("second_order") <= 1e-5, points
        # negative controls, both near 1: first order drops the inner-step terms,
        # and a relu vjp that ignores its mask is wrong from the first sweep on
        assert worst_error("first_order") > 0.1, points
        with monkeypatch.context() as patched:
            patched.setattr(model_module, "relu", relu_ignoring_its_mask)
            assert worst_error("second_order") > 0.1, points


def single_tape_meta_gradient(theta, tasks, config):
    """The meta-gradient with the whole query set on each task's one tape, as the reference.

    Each set's loss is summed block by block as its forwards run, then scaled;
    in second order the query blocks share the tape of theta and the inner steps.
    """

    def set_loss(params, terms):
        total = None
        for term in terms:
            value = term(params)
            total = value if total is None else total + value
        return total * (1.0 / len(terms))

    def adapt(task):
        phi = theta
        for _ in range(config.inner_steps):
            with Tape() as tape:
                tensors = phi.tensors()
                grads = backward(set_loss(tensors, task.support_terms), tape, tensors)
            phi = sgd_step(phi, grads, config.beta)
        return phi

    second_order = config.gradient_mode == "second_order"
    total, losses = {}, []
    for task in tasks:
        with Tape() as tape:
            leaves = current = (theta if second_order else adapt(task)).tensors()
            for _ in range(config.inner_steps if second_order else 0):
                inner_grads = backward(set_loss(current, task.support_terms), tape, current, create_graph=True)
                current = {n: current[n] - config.beta * inner_grads[n] for n in current}
            loss = set_loss(current, task.query_terms)
            grads = backward(loss, tape, leaves)
        losses.append(loss.item())
        for name, g in grads.items():
            total[name] = g.data.copy() if name not in total else total[name] + g.data
    scale = np.asarray(1.0 / len(tasks), dtype=theta.dtype)
    return {n: a * scale for n, a in total.items()}, float(np.mean(losses))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["first_order", "second_order"])
def test_meta_gradient_bits_match_one_tape_per_task(mode, dtype):
    # two tasks of 2 support and 3 query blocks; 16 points is below the mlp2
    # width of 32, 48 above it, and the T-Net pools 80 points past its 64
    cases = ((GRADCHECK_MODEL, 16), (GRADCHECK_MODEL, 48), (replace(GRADCHECK_MODEL, use_tnet=True), 80))
    for (model, points), steps in itertools.product(cases, (1, 2)):
        theta = init_params(model, seed=2, dtype=dtype)
        tasks = [SegmentationTask(random_episode(points, 2, 3, model.num_classes, seed=s, dtype=dtype), model)
                 for s in (0, 1)]
        config = config_with(beta=0.5, inner_steps=steps, tasks_per_batch=2, gradient_mode=mode)
        grads, loss = meta_gradient(theta, tasks, config)
        want, want_loss = single_tape_meta_gradient(theta, tasks, config)
        assert loss == want_loss, (points, steps)
        assert all(np.array_equal(grads[n], want[n]) for n in want), (model.use_tnet, points, steps)
        assert all(grads[n].dtype == dtype for n in want)


def test_a_tape_of_blocks_takes_each_head_row_block_once():
    # the head's first layer reads a local and a global row block of head.0.w in every forward
    config = PointNetConfig(num_classes=len(DEFAULT_CLASSES), points_per_block=32)
    task = SegmentationTask(random_episode(32, 12, 1, config.num_classes, seed=0, dtype=np.float32), config)
    with Tape() as tape:
        leaves = init_params(config, seed=0).tensors()
        for term in task.support_terms:
            term(leaves)
        taken = [node for node in tape.nodes if leaves["head.0.w"].node in node.parents]
    assert len(taken) == 2


@pytest.mark.parametrize(("use_tnet", "points"), [(False, 32), (True, 32), (False, 300)])  # 300 is past the pool width
def test_first_order_set_gradient_is_the_last_first_sum_of_its_blocks(use_tnet, points):
    # one tape over 12 blocks adds their gradients as its sweep meets them, last block first
    config = PointNetConfig(num_classes=len(DEFAULT_CLASSES), points_per_block=points, use_tnet=use_tnet)
    theta = init_params(config, seed=0)
    terms = SegmentationTask(random_episode(points, 12, 1, config.num_classes, seed=1, dtype=np.float32),
                             config).support_terms
    grads, _ = trainer_module._leaf_gradient(theta, terms, len(terms))
    summed = None
    for b in reversed(range(len(terms))):
        block, _ = trainer_module._leaf_gradient(theta, terms[b:b + 1], len(terms))
        summed = block if summed is None else {n: summed[n] + block[n] for n in block}
    assert all(np.array_equal(grads[n], summed[n]) for n in theta)


def test_second_order_meta_gradient_peak_memory():
    # default widths, 2 support blocks and 2 or 6 query blocks, float32. The
    # traced peak is exact for fixed shapes. Second order at P=128: 21.2 MB
    # when the backward kept every node's gradient, the relu masks and the
    # max-pool routing, and copied on transpose; 19.8 MB with only the copy
    # gone; 12.4 MB when each sweep drops what it is done with; 4.7 MB when a
    # node holds no output array, each vjp keeps only what it reads and the
    # last sweep drops the vjps; 4.8 MB with a tape per query block. At
    # P=1024: 71.6 MB when mlp2 was recorded on every point, 44.2 MB when it
    # is recorded on the 256 gathered rows only, 16.7 MB with the node/value
    # split, 12.3 MB with a tape per query block and 1-byte masks. With 6
    # query blocks 24.2 MB when they shared the support tape, 12.7 MB when
    # each has its own. First order 14.1 -> 5.6 MB
    cases = (("second_order", 128, 2, 6), ("second_order", 1024, 2, 14), ("second_order", 1024, 6, 14),
             ("first_order", 1024, 2, 7))
    for mode, points, n_query, bound_mb in cases:
        model = PointNetConfig(num_classes=len(DEFAULT_CLASSES), points_per_block=points)
        episode = random_episode(points, 2, n_query, model.num_classes, seed=0, dtype=np.float32)
        task = SegmentationTask(episode, model)
        theta = init_params(model, seed=0)
        config = config_with(beta=1e-2, gradient_mode=mode)
        tracemalloc.start()
        try:
            meta_gradient(theta, [task], config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, f"{mode} P={points}, {n_query} query: peak traced memory {peak / 2**20:.1f} MB"


def test_pretrain_non_finite_gradient_keeps_pre_step_state(small_distribution, monkeypatch):
    # a finite loss with a NaN gradient stops the step it happens on, before
    # theta turns NaN, and the error carries the state that step started from
    started = []

    def poisoned(theta, tasks, config):
        grads, loss = meta_gradient(theta, tasks, config)
        started.append(theta)
        if len(started) == 2:
            grads["out.b"] = np.full_like(grads["out.b"], np.nan)
        return grads, loss

    monkeypatch.setattr(trainer_module, "meta_gradient", poisoned)
    with pytest.raises(DivergenceError) as info:
        pretrain(small_distribution, config_with(alpha=1e-3, beta=1e-3, steps_per_epoch=4), TINY_MODEL, init_seed=0)
    state = info.value.last_state
    assert info.value.step == 1 and state.step == 1 and len(started) == 2
    assert all(np.array_equal(state.theta[n], started[1][n]) for n in state.theta.keys())


@pytest.mark.parametrize("mode", ["first_order", "second_order"])
def test_meta_gradient_returns_mean_query_loss(mode):
    # both quadratics adapt to phi = 0.5 in one step, whichever the mode
    tasks = [QuadraticTask(a=1.0, b=2.0), QuadraticTask(a=1.0, b=3.0)]
    _, loss = meta_gradient(quad_theta(0.0), tasks, config_with(gradient_mode=mode))
    assert loss == mean_adapted_query_loss(quad_theta(0.0), tasks, beta=0.25) == pytest.approx(4.25)


def test_meta_step_alpha_zero_like_update():
    state = TrainState(theta=quad_theta(0.0))
    out = meta_step(state, [QuadraticTask(1.0, 2.0)], config_with(alpha=1e-300))
    assert out.theta["w"] == pytest.approx(0.0, abs=1e-290)
    assert out.step == 1 and len(out.history) == 1
    assert state.step == 0  # functional


def test_meta_step_first_and_second_order_values():
    first = meta_step(TrainState(theta=quad_theta(0.0)), [QuadraticTask(1.0, 2.0)], config_with(alpha=0.1))
    assert first.theta["w"] == pytest.approx(0.3)
    second = meta_step(
        TrainState(theta=quad_theta(0.0)),
        [QuadraticTask(1.0, 2.0)],
        config_with(alpha=0.1, gradient_mode="second_order"),
    )
    assert second.theta["w"] == pytest.approx(0.15)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_meta_step_divergence_error():
    state = TrainState(theta=quad_theta(np.inf))
    with pytest.raises(DivergenceError):
        meta_step(state, [QuadraticTask(1.0, 2.0)], config_with())


def test_meta_step_divergence_factor():
    # the adapted query loss here is 2.25; it is compared with the first recorded loss,
    # and the error names the step being taken by its loss.csv index, as a NaN loss does
    config = config_with()
    assert meta_step(TrainState(theta=quad_theta(0.0)), [QuadraticTask(1.0, 2.0)], config).step == 1
    calm = TrainState(theta=quad_theta(0.0), step=3, history=[(0, 1.0)])
    assert meta_step(calm, [QuadraticTask(1.0, 2.0)], config).step == 4
    tiny_start = TrainState(theta=quad_theta(0.0), step=3, history=[(0, 1e-4)])
    with pytest.raises(DivergenceError) as info:
        meta_step(tiny_start, [QuadraticTask(1.0, 2.0)], config)
    assert info.value.step == 3 and "step 3: query loss 2.25 exceeded" in str(info.value)
    blown_up = TrainState(theta=quad_theta(np.inf), step=3, history=[(0, 1.0)])
    with pytest.raises(DivergenceError) as info, np.errstate(invalid="ignore"):
        meta_step(blown_up, [QuadraticTask(1.0, 2.0)], config)
    assert info.value.step == 3 and "step 3: query loss became nan" in str(info.value)


def test_segmentation_task_second_order_runs(small_distribution):
    episode = small_distribution[0]
    config = config_with(alpha=1e-3, beta=1e-2, gradient_mode="second_order")
    theta = init_params(TINY_MODEL, seed=0)
    grads, _ = meta_gradient(theta, [SegmentationTask(episode, TINY_MODEL)], config)
    assert set(grads) == set(theta.keys())
    assert all(np.isfinite(g).all() for g in grads.values())


def test_pretrain_zero_schedule_returns_init(small_distribution):
    config = config_with(alpha=1e-3, beta=1e-3, epochs=0, steps_per_epoch=0)
    state = pretrain(small_distribution, config, TINY_MODEL, init_seed=4)
    reference = init_params(TINY_MODEL, seed=4)
    assert all(np.array_equal(state.theta[n], reference[n]) for n in reference.keys())
    assert state.history == []


def test_pretrain_requires_enough_episodes(small_distribution):
    config = config_with(epochs=10, steps_per_epoch=100, tasks_per_batch=2)
    assert config.episodes == 2000 > len(small_distribution)
    with pytest.raises(ConfigError, match="schedule needs 2000 episodes"):
        pretrain(small_distribution, config, TINY_MODEL, init_seed=0)


def test_pretrain_deterministic_and_learns(small_distribution):
    config = config_with(alpha=2e-3, beta=1e-3, epochs=2, steps_per_epoch=40)
    epochs_seen = []
    state = pretrain(
        small_distribution, config, TINY_MODEL, init_seed=1, checkpoint_hook=lambda e, s: epochs_seen.append(e)
    )
    again = pretrain(small_distribution, config, TINY_MODEL, init_seed=1)
    assert epochs_seen == [0, 1, 2]
    assert len(state.history) == 80
    assert all(np.array_equal(state.theta[n], again.theta[n]) for n in state.theta.keys())
    losses = state.losses
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


def test_pretrain_divergence_threshold(small_distribution):
    # a huge outer step blows the loss past the 1e4 x initial-loss guard
    config = config_with(alpha=1e7, beta=1e-3, epochs=1, steps_per_epoch=50)
    with pytest.raises(DivergenceError) as info:
        with np.errstate(all="ignore"):
            pretrain(small_distribution, config, TINY_MODEL, init_seed=0)
    assert info.value.step >= 1
    assert isinstance(info.value.last_state, TrainState)


def test_pretrain_steps_every_epoch_at_the_config_beta(small_distribution):
    # beta is a run constant: two epochs of pretrain are the config's meta_steps over the episodes in order
    config = config_with(alpha=1e-3, beta=1e-2, epochs=2, steps_per_epoch=2)
    state = pretrain(small_distribution, config, TINY_MODEL, init_seed=0)
    manual = TrainState(theta=init_params(TINY_MODEL, seed=0))
    for i in range(config.episodes):
        manual = meta_step(manual, [SegmentationTask(small_distribution[i], TINY_MODEL)], config)
    assert [step for step, _ in state.history] == [0, 1, 2, 3]
    assert state.history == manual.history
    assert all(np.array_equal(state.theta[n], manual.theta[n]) for n in manual.theta.keys())


def one_class_area(label=1, rooms=3):
    rng = np.random.default_rng(0)
    out = []
    for i in range(rooms):
        n = 600
        out.append(
            Room(
                name=f"office_{i + 1}",
                room_type="office",
                xyz=rng.uniform(0, 3, size=(n, 3)),
                rgb=rng.integers(0, 256, size=(n, 3)),
                labels=np.full(n, label, dtype=np.int64),
            )
        )
    return Area(name="Mono", rooms=out, classes=DEFAULT_CLASSES)


def test_adapt_and_eval_perfect_on_one_class_target():
    area = one_class_area(label=1)
    theta = init_params(TINY_MODEL, seed=0)
    biased = {n: a.copy() for n, a in theta.items()}
    biased["out.w"] = np.zeros_like(biased["out.w"])
    for name in list(biased):
        if name.startswith(("mlp", "head")):
            biased[name] = np.zeros_like(biased[name])
    biased["out.b"] = np.zeros_like(biased["out.b"])
    biased["out.b"][1] = 10.0  # hard-wired to predict the single present class
    report = adapt_and_eval(
        ParamStore(biased),
        TINY_MODEL,
        area,
        EpisodeSpec(ways=1, shots=1),
        episodes=5,
        rng=np.random.default_rng(0),
        beta=0.0,
    )
    assert report.overall.oacc == 1.0
    assert all(m.oacc == 1.0 for m in report.per_episode)


def balanced_area(num_classes=4, rooms=4):
    rng = np.random.default_rng(42)
    out = []
    for i in range(rooms):
        n = 800
        labels = np.tile(np.arange(num_classes), n // num_classes)
        rng.shuffle(labels)
        out.append(
            Room(
                name=f"office_{i + 1}",
                room_type="office",
                xyz=rng.uniform(0, 3, size=(n, 3)),
                rgb=rng.integers(0, 256, size=(n, 3)),
                labels=labels.astype(np.int64),
            )
        )
    return Area(name="Balanced", rooms=out, classes=DEFAULT_CLASSES[:num_classes])


def test_adapt_and_eval_chance_level_without_adaptation():
    area = balanced_area(num_classes=4)
    model = PointNetConfig(
        num_classes=4, mlp1_widths=(8, 8), mlp2_widths=(8, 16), seg_head_widths=(8,), points_per_block=64
    )
    report = adapt_and_eval(
        init_params(model, seed=123),
        model,
        area,
        EpisodeSpec(ways=1, shots=1),
        episodes=40,
        rng=np.random.default_rng(7),
        beta=0.0,
    )
    assert report.mean_oacc == pytest.approx(0.25, abs=0.05)


def test_adapt_and_eval_rejects_zero_episodes():
    with pytest.raises(ConfigError):
        adapt_and_eval(
            init_params(TINY_MODEL, 0),
            TINY_MODEL,
            one_class_area(),
            EpisodeSpec(ways=1, shots=1),
            episodes=0,
            rng=np.random.default_rng(0),
            beta=0.0,
        )


def test_meta_config_validation():
    with pytest.raises(ConfigError):
        MetaConfig(alpha=0.0, beta=0.1)
    with pytest.raises(ConfigError):
        MetaConfig(alpha=0.1, beta=-1.0)
    with pytest.raises(ConfigError):
        MetaConfig(alpha=0.1, beta=0.1, gradient_mode="third_order")
