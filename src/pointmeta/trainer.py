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
  the inner backward pass on the tape.  The query set then runs one block
  at a time, each on a tape of its own, and the support tape is swept once
  more from phi, seeded with the summed query gradient at phi, so no more
  than one query block's graph is alive beside it.

A task is two lists of per-block loss terms, ``support_terms`` and
``query_terms``, each a function of the parameters to a scalar tensor, so
the same machinery runs the segmentation network and the closed-form test
problems; a set's loss is their mean, and each term is seeded with 1/(its set's size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ParamStore, Tape, backward, cross_entropy, sgd_step
from .errors import ConfigError, DivergenceError
from .metrics import SegMetrics, accumulate, compute_metrics
from .model import PointNetConfig, forward, init_params, predict_labels
from .sampler import CategoryIndex, Episode, EpisodeSpec, TaskDistribution, index_categories, sample_episode

GRADIENT_MODES = ("first_order", "second_order")

# meta_step raises once the query loss exceeds this multiple of the first
# recorded loss (or stops being finite)
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

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        for name, least in (("inner_steps", 1), ("tasks_per_batch", 1), ("epochs", 0), ("steps_per_epoch", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ConfigError(f"gradient_mode must be one of {GRADIENT_MODES}")

    @property
    def episodes(self) -> int:
        """The episodes the schedule trains on: ``tasks_per_batch`` per step of every epoch."""
        return self.epochs * self.steps_per_epoch * self.tasks_per_batch


@dataclass
class SegmentationTask:
    """One per-point cross-entropy term per block of the episode's sets."""

    episode: Episode
    model: PointNetConfig

    def _terms(self, samples) -> list:
        return [lambda params, s=s: cross_entropy(forward(self.model, params, s.features), s.labels)
                for s in samples]

    @property
    def support_terms(self) -> list:
        return self._terms(self.episode.support)

    @property
    def query_terms(self) -> list:
        return self._terms(self.episode.query)


def inner_adapt(theta: ParamStore, task, beta: float, steps: int = 1) -> ParamStore:
    """Adapt theta on the task's support set; theta itself is untouched."""
    phi, support = theta, task.support_terms
    for _ in range(steps):
        phi = sgd_step(phi, _leaf_gradient(phi, support, len(support))[0], beta)
    return phi if phi is not theta else theta.copy()


def _leaf_gradient(params: ParamStore, terms, count: int) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
    """Gradient of the terms' sum over ``count`` at fresh leaves holding ``params``, and the terms' values.

    The terms are recorded on a tape of their own, which is freed on return.
    """
    with Tape() as tape:
        leaves = params.tensors()
        parts = [term(leaves) for term in terms]
        grads = backward(dict.fromkeys(parts, np.asarray(1.0 / count, dtype=params.dtype)), tape, leaves)
    return {n: g.data for n, g in grads.items()}, [p.data for p in parts]


def meta_gradient(theta: ParamStore, tasks, config: MetaConfig) -> tuple[dict[str, np.ndarray], float]:
    """Gradient of the batch-averaged query loss with respect to theta, and that loss.

    First order takes the query gradient at the adapted phi on one tape, so
    it ignores how phi depends on theta.  Second order records the inner
    steps on theta's tape with ``create_graph``, runs the query blocks last
    first on tapes of their own at phi's values (the order in which one sweep
    over the whole set adds their gradients, so the bits are that sweep's),
    and sweeps the support tape from phi seeded with their sum.
    """
    if not tasks:
        raise ConfigError("need at least one task")
    total: dict[str, np.ndarray] = {}
    losses = []
    for task in tasks:
        query = task.query_terms
        if config.gradient_mode == "first_order":
            phi = inner_adapt(theta, task, config.beta, config.inner_steps)
            grads, values = _leaf_gradient(phi, query, len(query))
        else:
            seed = np.asarray(1.0 / len(task.support_terms), dtype=theta.dtype)
            with Tape() as tape:
                leaves = current = theta.tensors()
                for _ in range(config.inner_steps):
                    g = backward({term(current): seed for term in task.support_terms}, tape, current, create_graph=True)
                    current = {n: current[n] - config.beta * g[n] for n in current}
                phi = ParamStore({n: t.data for n, t in current.items()})
                # the query blocks, last first, each on its own tape
                summed, values = None, [None] * len(query)
                for b in reversed(range(len(query))):
                    block, (values[b],) = _leaf_gradient(phi, query[b:b + 1], len(query))
                    summed = block if summed is None else {n: summed[n] + block[n] for n in block}
                grads = {n: g.data for n, g in backward({current[n]: summed[n] for n in current}, tape, leaves).items()}
        # the block-order sum of the values times 1/len, the mean the seeds are shares of
        losses.append(float(sum(values[1:], values[0]) * np.asarray(1.0 / len(values), dtype=theta.dtype)))
        for name, arr in grads.items():
            total[name] = arr.copy() if name not in total else total[name] + arr
    scale = np.asarray(1.0 / len(tasks), dtype=theta.dtype)
    return {n: a * scale for n, a in total.items()}, float(np.mean(losses))


@dataclass
class TrainState:
    theta: ParamStore
    step: int = 0
    history: list = field(default_factory=list)  # (step, query_loss); beta and alpha are the run's MetaConfig

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
    if state.history and loss > DIVERGENCE_FACTOR * max(state.history[0][1], 1e-12):
        raise DivergenceError(state.step, f"query loss {loss:.3g} exceeded {DIVERGENCE_FACTOR:g} x initial")
    theta = sgd_step(state.theta, grads, config.alpha)
    return TrainState(
        theta=theta,
        step=state.step + 1,
        history=state.history + [(state.step, loss)],
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
    if len(distribution) < config.episodes:
        raise ConfigError(
            f"schedule needs {config.episodes} episodes but the distribution only has {len(distribution)}"
        )
    state = TrainState(theta=init_params(model, init_seed))
    if checkpoint_hook:
        checkpoint_hook(0, state)
    for epoch in range(config.epochs):
        for _ in range(config.steps_per_epoch):
            start = state.step * config.tasks_per_batch
            tasks = [SegmentationTask(distribution[start + i], model) for i in range(config.tasks_per_batch)]
            try:
                state = meta_step(state, tasks, config)
            except DivergenceError as exc:
                exc.last_state = state
                raise
        if checkpoint_hook:
            checkpoint_hook(epoch + 1, state)
    return state


@dataclass
class EvalReport:
    overall: SegMetrics  # micro-averaged across every query block of every episode
    per_episode: list[SegMetrics]
    counts: np.ndarray  # [m, m] confusion counts, [true class, predicted class]

    @property
    def mean_oacc(self) -> float:
        return float(np.mean([m.oacc for m in self.per_episode]))

    @property
    def mean_macc(self) -> float:
        return float(np.mean([m.macc for m in self.per_episode]))

    @property
    def mean_miou(self) -> float:
        return float(np.mean([m.miou for m in self.per_episode]))


def check_eval(episodes: int, inner_steps: int, beta: float) -> None:
    """The ranges ``evaluate`` takes; each message begins with the argument it rejects."""
    if episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {episodes}")
    if inner_steps < 0:
        raise ConfigError(f"inner_steps must be >= 0, got {inner_steps}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError(f"beta must be finite and >= 0, got {beta}")


def evaluate(
    theta: ParamStore,
    model: PointNetConfig,
    index: CategoryIndex,
    spec: EpisodeSpec,
    episodes: int,
    rng: np.random.Generator,
    beta: float,
    inner_steps: int = 1,
) -> EvalReport:
    """Sample episodes from the block ``index``, adapt on S, score on Q.

    An episode whose adapted parameters are not finite raises a ``DivergenceError`` naming it.
    """
    check_eval(episodes, inner_steps, beta)
    total = np.zeros((model.num_classes, model.num_classes), dtype=np.int64)
    per_episode = []
    for i in range(episodes):
        episode = sample_episode(index, spec, rng)
        task = SegmentationTask(episode, model)
        with np.errstate(over="ignore", invalid="ignore"):  # raised below instead, as for meta_step
            phi = inner_adapt(theta, task, beta, inner_steps)
        if not all(np.isfinite(a).all() for a in phi.values()):
            raise DivergenceError(i, f"adapted parameters became non-finite at beta {beta:g}", unit="episode")
        counts = np.zeros_like(total)
        for sample in episode.query:
            logits = forward(model, phi, sample.features)
            counts = accumulate(counts, predict_labels(logits), sample.labels)
        total += counts
        per_episode.append(compute_metrics(counts))
    return EvalReport(overall=compute_metrics(total), per_episode=per_episode, counts=total)


def adapt_and_eval(theta: ParamStore, model: PointNetConfig, areas, spec: EpisodeSpec, episodes: int,
                   rng: np.random.Generator, beta: float, inner_steps: int = 1) -> EvalReport:
    """``evaluate`` on the block index of ``areas``, each block resampled to ``model.points_per_block``."""
    check_eval(episodes, inner_steps, beta)  # before any room is read
    index = index_categories(areas, points_per_block=model.points_per_block)
    return evaluate(theta, model, index, spec, episodes, rng, beta, inner_steps)
