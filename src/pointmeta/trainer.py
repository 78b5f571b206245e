"""Meta-training: per-task adaptation, meta-gradients, and transfer eval.

One outer step takes a batch of tasks.  For each task the shared
initialization theta is adapted on the support set (phi = theta minus beta
times the support-loss gradient, repeated ``inner_steps`` times), the query
loss of the adapted parameters is measured, and theta moves against the
mean query-loss gradient with step size alpha.

Two gradient modes:

* ``first_order`` treats the adapted parameters as if they did not depend
  on theta and takes the query gradient at phi directly.
* ``second_order`` differentiates through the inner update(s) by keeping
  the inner backward pass on the tape.

Tasks are expressed as objectives with ``support_loss``/``query_loss`` so
the same machinery runs the segmentation network and the closed-form test
problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ParamStore, Tape, Tensor, backward, cross_entropy, grad_array, sgd_step
from .errors import ConfigError, DivergenceError
from .metrics import ConfusionMatrix, SegMetrics, accumulate, compute_metrics
from .model import PointNetConfig, forward, init_params, predict_labels
from .sampler import Episode, EpisodeSpec, TaskDistribution, index_categories, sample_episode

GRADIENT_MODES = ("first_order", "second_order")

# pretraining aborts once the query loss exceeds this multiple of its
# starting value (or stops being finite)
DIVERGENCE_FACTOR = 1e4


@dataclass(frozen=True)
class MetaConfig:
    alpha: float  # outer (meta) step size
    beta: float  # inner (adaptation) learning rate
    inner_steps: int = 1
    tasks_per_batch: int = 1
    gradient_mode: str = "first_order"
    epochs: int = 1
    steps_per_epoch: int = 0
    phase_betas: tuple[float, ...] | None = None  # optional decay schedule

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.inner_steps < 1 or self.tasks_per_batch < 1:
            raise ConfigError("inner_steps and tasks_per_batch must be >= 1")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ConfigError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.epochs < 0 or self.steps_per_epoch < 0:
            raise ConfigError("epochs and steps_per_epoch must be >= 0")
        if self.phase_betas is not None and len(self.phase_betas) == 0:
            raise ConfigError("phase_betas must be non-empty when given")

    def beta_for_epoch(self, epoch: int) -> float:
        if not self.phase_betas:
            return self.beta
        # contiguous phases of equal length (the last phase absorbs the rest)
        per_phase = max(self.epochs // len(self.phase_betas), 1)
        return self.phase_betas[min(epoch // per_phase, len(self.phase_betas) - 1)]


@dataclass
class SegmentationTask:
    """Episode losses: mean per-point cross-entropy over the set's blocks."""

    episode: Episode
    model: PointNetConfig

    def _set_loss(self, params, samples) -> Tensor:
        total = None
        for sample in samples:
            loss = cross_entropy(forward(self.model, params, sample.features), sample.labels)
            total = loss if total is None else total + loss
        return total * (1.0 / len(samples))

    def support_loss(self, params) -> Tensor:
        return self._set_loss(params, self.episode.support)

    def query_loss(self, params) -> Tensor:
        return self._set_loss(params, self.episode.query)


@dataclass
class QuadraticTask:
    """1-parameter analytic task: support (w-a)^2, query (w-b)^2."""

    a: float
    b: float

    def support_loss(self, params) -> Tensor:
        d = params["w"] - self.a
        return d * d

    def query_loss(self, params) -> Tensor:
        d = params["w"] - self.b
        return d * d


def inner_adapt(theta: ParamStore, task, beta: float, steps: int = 1) -> ParamStore:
    """Adapt theta on the task's support set; theta itself is untouched."""
    phi = theta
    for _ in range(steps):
        with Tape() as tape:
            tensors = phi.tensors()
            loss = task.support_loss(tensors)
            grads = backward(loss, tape, tensors)
        phi = sgd_step(phi, grads, beta)
    return phi if phi is not theta else theta.copy()


def meta_gradient(theta: ParamStore, tasks, config: MetaConfig) -> tuple[dict[str, np.ndarray], float]:
    """Gradient of the batch-averaged query loss with respect to theta, and that loss.

    Each task gets its own tape.  First order starts the tape at the adapted
    phi, so the query gradient ignores how phi depends on theta; second order
    starts it at theta and records the inner steps with ``create_graph``.
    """
    if not tasks:
        raise ConfigError("need at least one task")
    second_order = config.gradient_mode == "second_order"
    total: dict[str, np.ndarray] = {}
    losses = []
    for task in tasks:
        start = theta if second_order else inner_adapt(theta, task, config.beta, config.inner_steps)
        with Tape() as tape:
            leaves = current = start.tensors()
            for _ in range(config.inner_steps if second_order else 0):
                inner_grads = backward(task.support_loss(current), tape, current, create_graph=True)
                current = {n: current[n] - config.beta * inner_grads[n] for n in current}
            loss = task.query_loss(current)
            grads = backward(loss, tape, leaves)
        losses.append(loss.item())
        for name, g in grads.items():
            arr = grad_array(g)
            total[name] = arr.copy() if name not in total else total[name] + arr
    scale = np.asarray(1.0 / len(tasks), dtype=theta.dtype)
    return {n: a * scale for n, a in total.items()}, float(np.mean(losses))


@dataclass
class TrainState:
    theta: ParamStore
    step: int = 0
    history: list = field(default_factory=list)  # (step, query_loss, beta, alpha)

    @property
    def losses(self) -> list[float]:
        return [row[1] for row in self.history]


def meta_step(state: TrainState, tasks, config: MetaConfig) -> TrainState:
    """One outer update; functional, the input state is untouched."""
    grads, loss = meta_gradient(state.theta, tasks, config)
    if not math.isfinite(loss):
        raise DivergenceError(state.step, f"query loss became {loss}")
    if not all(np.isfinite(g).all() for g in grads.values()):
        raise DivergenceError(state.step, "a meta-gradient became non-finite")
    theta = sgd_step(state.theta, grads, config.alpha)
    return TrainState(
        theta=theta,
        step=state.step + 1,
        history=state.history + [(state.step, loss, config.beta, config.alpha)],
    )


def pretrain(
    distribution: TaskDistribution,
    config: MetaConfig,
    model: PointNetConfig,
    init_seed: int,
    checkpoint_hook=None,
) -> TrainState:
    """Run the full meta-training schedule over a task distribution.

    ``checkpoint_hook(epoch, state)`` fires after initialization (epoch 0)
    and after every epoch; the CLI uses it to write checkpoint files.  On
    divergence the exception carries the last good state.
    """
    total = config.epochs * config.steps_per_epoch * config.tasks_per_batch
    if len(distribution) < total:
        raise ConfigError(
            f"schedule needs {total} episodes but the distribution only has {len(distribution)}"
        )
    state = TrainState(theta=init_params(model, init_seed))
    if checkpoint_hook:
        checkpoint_hook(0, state)
    initial_loss = None
    cursor = 0
    for epoch in range(config.epochs):
        epoch_config = replace(config, beta=config.beta_for_epoch(epoch))
        for _ in range(config.steps_per_epoch):
            episodes = [distribution[cursor + i] for i in range(config.tasks_per_batch)]
            cursor += config.tasks_per_batch
            tasks = [SegmentationTask(ep, model) for ep in episodes]
            try:
                new_state = meta_step(state, tasks, epoch_config)
            except DivergenceError as exc:
                exc.last_state = state
                raise
            loss = new_state.history[-1][1]
            if initial_loss is None:
                initial_loss = loss
            elif loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
                exc = DivergenceError(new_state.step, f"query loss {loss:.3g} exceeded {DIVERGENCE_FACTOR:g} x initial")
                exc.last_state = state
                raise exc
            state = new_state
        if checkpoint_hook:
            checkpoint_hook(epoch + 1, state)
    return state


@dataclass
class EvalReport:
    overall: SegMetrics  # micro-averaged across every query block of every episode
    per_episode: list[SegMetrics]
    cm: ConfusionMatrix

    @property
    def mean_oacc(self) -> float:
        return float(np.mean([m.oacc for m in self.per_episode]))

    @property
    def mean_macc(self) -> float:
        return float(np.mean([m.macc for m in self.per_episode]))

    @property
    def mean_miou(self) -> float:
        return float(np.mean([m.miou for m in self.per_episode]))


def adapt_and_eval(
    theta: ParamStore,
    model: PointNetConfig,
    areas,
    spec: EpisodeSpec,
    episodes: int,
    rng: np.random.Generator,
    beta: float,
    inner_steps: int = 1,
    points_per_block: int | None = None,
) -> EvalReport:
    """Sample episodes from the target areas, adapt on S, score on Q."""
    if episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {episodes}")
    if inner_steps < 0:
        raise ConfigError(f"inner_steps must be >= 0, got {inner_steps}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError(f"beta must be finite and >= 0, got {beta}")
    if points_per_block is not None and points_per_block < 1:
        raise ConfigError(f"points_per_block must be >= 1 or None (the model's), got {points_per_block}")
    points = model.points_per_block if points_per_block is None else points_per_block
    index = index_categories(areas, mode=spec.category_mode, points_per_block=points)
    total_cm = ConfusionMatrix.zeros(model.num_classes)
    per_episode = []
    for _ in range(episodes):
        episode = sample_episode(index, spec, rng)
        task = SegmentationTask(episode, model)
        phi = inner_adapt(theta, task, beta, inner_steps)
        episode_cm = ConfusionMatrix.zeros(model.num_classes)
        for sample in episode.query:
            logits = forward(model, phi, sample.features)
            episode_cm = accumulate(episode_cm, predict_labels(logits), sample.labels)
        total_cm = total_cm.merge(episode_cm)
        per_episode.append(compute_metrics(episode_cm))
    return EvalReport(overall=compute_metrics(total_cm), per_episode=per_episode, cm=total_cm)
