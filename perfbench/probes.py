"""Where the traced run attaches to pointmeta, and the per-layer metrics.

Every patch targets the module attribute that the caller resolves, so the
library code runs unchanged: ``SegmentationTask`` looks up
``pointmeta.trainer.forward``, the backward rules look up
``pointmeta.autodiff.matmul``, the CLI parser looks up ``pointmeta.cli.cmd_*``
when ``main`` builds it, and so on.
"""

from __future__ import annotations

import os
import weakref

from pointmeta import autodiff, cli, data, model, sampler, trainer

from tracer import self_times


def _shape(x):
    return tuple(getattr(x, "shape", ()))


def _matmul_info(args, kwargs):
    (m, k), (_, n) = _shape(args[0]), _shape(args[1])
    return {"flop": 2 * m * k * n}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _count_step(tracer):
    if tracer.step is not None:
        tracer.step += 1


def _start_steps(tracer):
    tracer.step = 0


def _start_episodes(tracer):
    tracer.episode = -1


def _next_episode(tracer):
    if tracer.episode is not None:
        tracer.episode += 1


def _clear_steps(tracer):
    tracer.step = None


def _clear_episodes(tracer):
    tracer.episode = None


_EPISODES = {"enter": _start_episodes, "leave": _clear_episodes}

# (owner, attribute, span name, hooks) of the units the end-to-end metrics,
# the byte counters and the tracing overhead are read from; the untraced run
# patches only these, the traced run these and the rest of ``install``
CLOCK = (
    (trainer, "meta_step", "trainer.meta_step", {"leave": _count_step}),
    (trainer, "inner_adapt", "trainer.inner_adapt", {}),
    (trainer, "adapt_and_eval", "trainer.adapt_and_eval", _EPISODES),
    (cli, "adapt_and_eval", "trainer.adapt_and_eval", _EPISODES),
    (data, "load_room", "data.load_room", {"pre": _file_bytes, "post": lambda a, k, r: {"points": len(r)}}),
    (data, "write_room", "data.write_room",
     {"post": lambda a, k, r: {"points": len(a[0]), "bytes": os.path.getsize(a[1])}}),
    (cli, "_sha256_file", "cli.hash", {"pre": _file_bytes}),
)

# counters of the bytes moved through files, each the sum of the ``bytes``
# info of one span name
BYTES = {
    "data.bytes_read": "data.load_room",
    "data.bytes_written": "data.write_room",
    "cli.hashed_bytes": "cli.hash",
}

# spans whose time the tracing overhead compares; they never nest
OVERHEAD_UNITS = ("trainer.meta_step", "trainer.adapt_and_eval")


def install_clock(tracer) -> None:
    """Patch the ``CLOCK`` units only."""
    for owner, attr, name, hooks in CLOCK:
        tracer.patch(owner, attr, name, **hooks)


def install(tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from."""
    seen_tapes = weakref.WeakKeyDictionary()

    def backward_info(args, kwargs):
        # a tape can be swept twice (second order: inner create_graph pass,
        # then the outer pass); count each node once per tape
        tape = args[1] if len(args) > 1 else kwargs["tape"]
        nodes = len(tape.nodes)
        new = nodes - seen_tapes.get(tape, 0)
        seen_tapes[tape] = nodes
        return {"nodes": nodes, "new_nodes": new}

    install_clock(tracer)
    patch = tracer.patch
    # autodiff
    patch(trainer, "backward", "autodiff.backward", pre=backward_info)
    patch(trainer, "cross_entropy", "autodiff.cross_entropy")
    patch(trainer, "sgd_step", "autodiff.sgd_step")
    for owner in (model, autodiff):
        patch(owner, "matmul", "autodiff.matmul", pre=_matmul_info)
    # model
    patch(trainer, "forward", "model.forward")
    for owner in (model, cli):
        patch(owner, "save_checkpoint", "model.save_checkpoint")
        patch(owner, "load_checkpoint", "model.load_checkpoint")
    # sampler
    for owner in (sampler, trainer):
        patch(owner, "sample_episode", "sampler.episode", enter=_next_episode)
    patch(sampler.CategoryIndex, "materialize", "sampler.materialize")
    patch(sampler.CategoryIndex, "__init__", "sampler.index")
    # data
    patch(sampler, "featurize_block", "data.featurize")
    patch(sampler, "resample_block", "data.resample")
    for owner in (sampler, cli):
        patch(owner, "partition_blocks", "data.partition")
    patch(cli, "generate_synthetic_area", "data.generate")
    # trainer
    for owner in (trainer, cli):
        patch(owner, "pretrain", "trainer.pretrain", enter=_start_steps, leave=_clear_steps)
    # metrics
    patch(trainer, "accumulate", "metrics.accumulate")
    patch(trainer, "compute_metrics", "metrics.compute")
    # cli
    for command in ("synth", "ingest", "pretrain", "adapt_eval"):
        patch(cli, f"cmd_{command}", "cli.command", pre=lambda a, k, c=command: {"command": c})
    patch(cli, "write_manifest", "cli.write_manifest")


def byte_counts(spans) -> dict[str, int]:
    """Bytes read, written and hashed by the file spans among ``spans``."""
    return {counter: sum((s.info or {}).get("bytes", 0) for s in spans if s.name == name)
            for counter, name in BYTES.items()}


def unit_seconds(spans) -> float:
    """Seconds spent in the ``OVERHEAD_UNITS`` among ``spans``."""
    return sum(s.duration for s in spans if s.name in OVERHEAD_UNITS)


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("autodiff.tape_nodes_per_step", "count", "lower"),
    ("autodiff.backward.calls_per_step", "count", "lower"),
    ("autodiff.backward.self_ms_per_step", "ms", "lower"),
    ("autodiff.matmul.calls_per_step", "count", "lower"),
    ("autodiff.matmul.gflop_per_step", "GFLOP", "lower"),
    ("autodiff.matmul.self_ms_per_step", "ms", "lower"),
    ("autodiff.cross_entropy.self_ms_per_step", "ms", "lower"),
    ("autodiff.sgd_step.self_ms_per_step", "ms", "lower"),
    ("model.forward.calls_per_step", "count", "lower"),
    ("model.forward.self_ms_per_step", "ms", "lower"),
    ("model.save_checkpoint_ms", "ms", "lower"),
    ("model.load_checkpoint_ms", "ms", "lower"),
    ("sampler.episode_ms", "ms", "lower"),
    ("sampler.blocks_per_step", "count", "lower"),
    ("sampler.materialize.self_ms_per_block", "ms", "lower"),
    ("sampler.index_ms", "ms", "lower"),
    ("data.featurize.ms_per_block", "ms", "lower"),
    ("data.resample.ms_per_block", "ms", "lower"),
    ("data.partition.ms_per_room", "ms", "lower"),
    ("data.load_room.points_per_s", "points/s", "higher"),
    ("data.write_room.points_per_s", "points/s", "higher"),
    ("data.bytes_read", "B", "lower"),
    ("data.bytes_written", "B", "lower"),
    ("trainer.meta_step.self_ms", "ms", "lower"),
    ("trainer.inner_adapt.ms_per_call", "ms", "lower"),
    ("trainer.adapt_and_eval.self_ms_per_episode", "ms", "lower"),
    ("metrics.accumulate.ms_per_block", "ms", "lower"),
    ("metrics.compute.ms_per_episode", "ms", "lower"),
    ("cli.command.self_ms", "ms", "lower"),
    ("cli.write_manifest_ms", "ms", "lower"),
    ("cli.hashed_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# counts that depend only on the model, P and the episode shape, never on
# timing; each must read the same on every meta-step
STEP_COUNTS = {
    "tape_nodes": ("autodiff.backward", lambda s: s.info["new_nodes"]),
    "backward_calls": ("autodiff.backward", lambda s: 1),
    "matmul_calls": ("autodiff.matmul", lambda s: 1),
    "matmul_flop": ("autodiff.matmul", lambda s: s.info["flop"]),
    "forward_calls": ("model.forward", lambda s: 1),
    "blocks": ("sampler.materialize", lambda s: 1),
}


def step_counts(spans) -> dict[str, list[int]]:
    """Per-step value of each exact counter, indexed by meta-step."""
    steps = _step_keys(spans)
    out = {key: [0] * len(steps) for key in STEP_COUNTS}
    position = {key: i for i, key in enumerate(steps)}
    for span in spans:
        key = (span.step, _pretrain_of(spans, span))
        if span.step is None or key not in position:
            continue
        for counter, (name, value) in STEP_COUNTS.items():
            if span.name == name:
                out[counter][position[key]] += value(span)
    return out


def _pretrain_of(spans, span):
    """Index of the enclosing trainer.pretrain span (steps restart per call)."""
    parent = span.parent
    while parent is not None and spans[parent].name != "trainer.pretrain":
        parent = spans[parent].parent
    return parent


def _step_keys(spans):
    return [(s.step, _pretrain_of(spans, s)) for s in spans if s.name == "trainer.meta_step"]


def layer_metrics(spans, overhead_ratio: float) -> tuple[dict[str, float], dict[str, list[int]]]:
    selfs = self_times(spans)
    n_steps = max(len(_step_keys(spans)), 1)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def idx(name, in_step=False):
        return [i for i in by_name.get(name, ()) if not in_step or spans[i].step is not None]

    def total(name, values, in_step=False):
        return sum(values(i) for i in idx(name, in_step))

    def dur(i):
        return spans[i].duration

    def self_(i):
        return selfs[i]

    def info(key):
        return lambda i: spans[i].info[key]

    def mean(name, values):
        found = idx(name)
        return sum(values(i) for i in found) / len(found) if found else 0.0

    def rate(name, key):
        seconds = total(name, dur)
        return total(name, info(key)) / seconds if seconds else 0.0

    episodes = max(len([i for i in idx("sampler.episode") if spans[i].episode is not None]), 1)
    counts = step_counts(spans)
    per_step = {k: sum(v) / n_steps for k, v in counts.items()}
    ms = 1e3
    values = {
        "autodiff.tape_nodes_per_step": per_step["tape_nodes"],
        "autodiff.backward.calls_per_step": per_step["backward_calls"],
        "autodiff.backward.self_ms_per_step": total("autodiff.backward", self_, True) * ms / n_steps,
        "autodiff.matmul.calls_per_step": per_step["matmul_calls"],
        "autodiff.matmul.gflop_per_step": per_step["matmul_flop"] / 1e9,
        "autodiff.matmul.self_ms_per_step": total("autodiff.matmul", self_, True) * ms / n_steps,
        "autodiff.cross_entropy.self_ms_per_step": total("autodiff.cross_entropy", self_, True) * ms / n_steps,
        "autodiff.sgd_step.self_ms_per_step": total("autodiff.sgd_step", self_, True) * ms / n_steps,
        "model.forward.calls_per_step": per_step["forward_calls"],
        "model.forward.self_ms_per_step": total("model.forward", self_, True) * ms / n_steps,
        "model.save_checkpoint_ms": mean("model.save_checkpoint", dur) * ms,
        "model.load_checkpoint_ms": mean("model.load_checkpoint", dur) * ms,
        "sampler.episode_ms": mean("sampler.episode", dur) * ms,
        "sampler.blocks_per_step": per_step["blocks"],
        "sampler.materialize.self_ms_per_block": mean("sampler.materialize", self_) * ms,
        "sampler.index_ms": mean("sampler.index", dur) * ms,
        "data.featurize.ms_per_block": mean("data.featurize", dur) * ms,
        "data.resample.ms_per_block": mean("data.resample", dur) * ms,
        "data.partition.ms_per_room": mean("data.partition", dur) * ms,
        "data.load_room.points_per_s": rate("data.load_room", "points"),
        "data.write_room.points_per_s": rate("data.write_room", "points"),
        **byte_counts(spans),
        "trainer.meta_step.self_ms": total("trainer.meta_step", self_) * ms / n_steps,
        "trainer.inner_adapt.ms_per_call": mean("trainer.inner_adapt", dur) * ms,
        "trainer.adapt_and_eval.self_ms_per_episode": total("trainer.adapt_and_eval", self_) * ms / episodes,
        "metrics.accumulate.ms_per_block": mean("metrics.accumulate", dur) * ms,
        "metrics.compute.ms_per_episode": total("metrics.compute", dur) * ms / episodes,
        "cli.command.self_ms": mean("cli.command", self_) * ms,
        "cli.write_manifest_ms": mean("cli.write_manifest", dur) * ms,
        "trace.overhead_ratio": overhead_ratio,
    }
    return values, counts
