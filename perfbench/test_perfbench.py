"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import probes  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, None, None)
    span.end = end
    return span


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("a.child", 1.5, 2.0, parent=1),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] is covered once
        _span("c", 6.0, 7.0, parent=0),
        _span("late", 9.5, 11.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 1.5, 0.5, 3.0, 1.0, 1.5])


def test_tracer_records_parents_context_and_failures():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    def outer(x):
        return wrapped_inner(x) + 1

    wrapped_inner = tracer.wrap(inner, "inner", post=lambda a, k, r: {"result": r})
    wrapped_outer = tracer.wrap(outer, "outer", enter=lambda t: setattr(t, "step", 7))
    assert wrapped_outer(3) == 7
    with pytest.raises(ValueError):
        wrapped_outer(-1)
    names = [(s.name, s.parent, s.step) for s in tracer.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7), ("outer", None, 7), ("inner", 2, 7)]
    assert tracer.spans[1].info == {"result": 6}
    assert all(s.end is not None for s in tracer.spans)
    assert not tracer._open


def _attributes(modules):
    snapshot = {}
    for module in modules:
        for owner in (module, *[v for v in vars(module).values() if isinstance(v, type)]):
            snapshot.update({(owner, k): v for k, v in vars(owner).items()})
    return snapshot


def test_probes_restore_every_patched_attribute():
    from pointmeta import autodiff, cli, data, metrics, model, sampler, trainer

    modules = (autodiff, cli, data, metrics, model, sampler, trainer)
    before = _attributes(modules)
    tracer = Tracer()
    probes.install(tracer)
    try:
        during = _attributes(modules)
        patched = [key for key in before if during[key] is not before[key]]
        assert len(patched) == len(tracer._patched) > 30
        assert trainer.forward.__wrapped__ is before[(trainer, "forward")]
    finally:
        tracer.restore()
    after = _attributes(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_step_counts_on_a_tiny_model(tmp_path):
    from pointmeta import data, model, sampler, trainer

    areas = [data.generate_synthetic_area(data.SyntheticAreaSpec(name="A", rooms=(("office", 2), ("hallway", 2)),
                                                                 density=40), seed=1)]
    config = model.PointNetConfig(num_classes=6, mlp1_widths=(4,), mlp2_widths=(8,), seg_head_widths=(4,),
                                  points_per_block=8)
    spec = sampler.EpisodeSpec(ways=2, shots=1)
    meta = trainer.MetaConfig(alpha=1e-3, beta=1e-3, steps_per_epoch=3)
    tracer = Tracer()
    probes.install(tracer)
    try:
        index = sampler.index_categories(areas, points_per_block=8)
        dist = sampler.build_task_distribution(index, spec, count=3, seed=0)
        trainer.pretrain(dist, meta, config, init_seed=0)
    finally:
        tracer.restore()
    counts = probes.step_counts(tracer.spans)
    assert counts["blocks"] == [4, 4, 4]  # 2 support + 2 query blocks per step
    assert counts["forward_calls"] == [4, 4, 4]
    assert counts["backward_calls"] == [2, 2, 2]  # first order: inner + outer tape
    assert len(set(counts["tape_nodes"])) == 1
    values, _ = probes.layer_metrics(tracer.spans, overhead_ratio=1.0)
    assert set(values) == {name for name, *_ in probes.PER_LAYER}
    assert values["autodiff.matmul.calls_per_step"] == sum(counts["matmul_calls"]) / 3
