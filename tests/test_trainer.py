import numpy as np
import pytest

from pointmeta.autodiff import ParamStore
from pointmeta.data import DEFAULT_CLASSES, Area, Room, SyntheticAreaSpec, generate_synthetic_area
from pointmeta.errors import ConfigError, DivergenceError
from pointmeta.model import PointNetConfig, forward, init_params
from pointmeta.sampler import EpisodeSpec, build_task_distribution, index_categories
from pointmeta.trainer import (
    MetaConfig,
    QuadraticTask,
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


def mean_adapted_query_loss(theta, tasks, beta):
    """Mean query loss over tasks, each adapted from the shared theta."""
    return float(np.mean([task.query_loss(inner_adapt(theta, task, beta).tensors()).item() for task in tasks]))


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
    assert QuadraticTask(a=1.0, b=2.0).query_loss(phi.tensors()).item() == pytest.approx(2.25)


def test_query_loss_uniform_logits_is_log_c():
    zeros = ParamStore({n: np.zeros_like(a) for n, a in init_params(TINY_MODEL, 0).items()})
    rng = np.random.default_rng(0)
    features = rng.normal(size=(32, 9)).astype(np.float32)
    labels = rng.integers(0, TINY_MODEL.num_classes, size=32)

    class OneBlock:
        def query_loss(self, params):
            from pointmeta.autodiff import cross_entropy

            return cross_entropy(forward(TINY_MODEL, params, features), labels)

    assert OneBlock().query_loss(zeros.tensors()).item() == pytest.approx(np.log(TINY_MODEL.num_classes), rel=1e-5)


def test_collaborative_loss_single_task_degenerates():
    task = QuadraticTask(a=1.0, b=2.0)
    single = mean_adapted_query_loss(quad_theta(0.0), [task], beta=0.25)
    direct = task.query_loss(inner_adapt(quad_theta(0.0), task, 0.25).tensors()).item()
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
    with pytest.raises(ConfigError):
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


def test_pretrain_phase_betas(small_distribution):
    config = config_with(alpha=1e-3, beta=1e-3, epochs=2, steps_per_epoch=2, phase_betas=(1e-2, 1e-4))
    state = pretrain(small_distribution, config, TINY_MODEL, init_seed=0)
    betas = [row[2] for row in state.history]
    assert betas == [1e-2, 1e-2, 1e-4, 1e-4]


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
