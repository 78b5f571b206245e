"""Exact per-step costs of one meta-step: tape nodes, backward calls, matmul calls and FLOPs.

These counts depend only on the model, P and the episode shape, never on the
host, so they catch a cost regression that timings on a noisy machine cannot.
The episode shape is the benchmark's: 2-way 6-shot, 12 support and 12 query
blocks, 6 classes, default widths, one inner step.  ``matmul`` and
``trainer.backward`` are wrapped where ``perfbench/probes.py`` wraps them, and
tape nodes are counted as there: the nodes each tape gained since its last
backward.  A change that lowers a count tightens its pin here.
"""

import weakref

import numpy as np
import pytest

from helpers import random_episode
from pointmeta import autodiff, model, trainer

COUNTED = ("tape_nodes", "backward_calls", "matmul_calls", "matmul_flop")

# (mode, P) -> the counts of one meta-step.  The matmul work is that of one
# tape holding the whole query set.  Second order tapes each query block on
# its own and sweeps the support tape once more from phi, seeded with their
# summed gradient: 14 backward calls where one shared tape took 2.  A set's
# mean is not recorded: backward seeds each block's loss with 1/(the set's
# size), so the add chain and scale of a set's mean (12 nodes per set of 12
# blocks), the per-block scales of the query tapes (12) and the 48-node
# pull-back loss sum(phi * G) are gone: 960 -> 936 first order, 1984 -> 1912
# second order.  The pool is a composite gather, a reshape, take_rows and
# transpose per forward (24 forwards per step).  A tape takes each row block
# of head.0.w once, not once per forward: a tape of 12 forwards records 2
# take_rows where it recorded 24, and the second-order support tape's
# create_graph sweep 2 scatter_rows where it recorded 24, so 936 -> 892 first
# order (two such tapes) and 1912 -> 1868 second order.  Past the pool width
# (P=1024 against mlp2's 256) the pool records one row per column and its last
# layer as a row-wise product: the [256, 128] @ [128, 256] matmul and its two
# backward matmuls go, in each of 24 forwards, so 696 -> 624 matmul calls and
# 7,013,400,576 -> 5,805,441,024 FLOPs first order (916 nodes either way), and
# 1296 -> 1152 calls, 11,783,897,088 -> 9,367,977,984 FLOPs and 1868 -> 1844
# nodes second order.  P=32 fits the width, so its path and counts stay
EXPECTED = {
    ("first_order", 32): {"tape_nodes": 892, "backward_calls": 2, "matmul_calls": 624, "matmul_flop": 310_247_424},
    ("first_order", 1024): {"tape_nodes": 916, "backward_calls": 2, "matmul_calls": 624, "matmul_flop": 5_805_441_024},
    ("second_order", 1024): {"tape_nodes": 1844, "backward_calls": 14, "matmul_calls": 1152,
                             "matmul_flop": 9_367_977_984},
}


def count_one_step(monkeypatch, mode: str, points: int) -> dict[str, int]:
    counts = dict.fromkeys(COUNTED, 0)
    seen = weakref.WeakKeyDictionary()
    backward, matmul = trainer.backward, autodiff.matmul

    def counted_backward(loss, tape, wrt, create_graph=False):
        counts["backward_calls"] += 1
        counts["tape_nodes"] += len(tape.nodes) - seen.get(tape, 0)
        seen[tape] = len(tape.nodes)
        return backward(loss, tape, wrt, create_graph=create_graph)

    def counted_matmul(a, b):
        (m, k), (_, n) = a.shape, b.shape
        counts["matmul_calls"] += 1
        counts["matmul_flop"] += 2 * m * k * n
        return matmul(a, b)

    config = model.PointNetConfig(num_classes=6, points_per_block=points)
    task = trainer.SegmentationTask(random_episode(points, 12, 12, 6, seed=0, dtype=np.float32), config)
    state = trainer.TrainState(theta=model.init_params(config, seed=0))
    meta = trainer.MetaConfig(alpha=1e-3, beta=1e-3, gradient_mode=mode)
    with monkeypatch.context() as patched:
        patched.setattr(trainer, "backward", counted_backward)
        for owner in (model, autodiff):
            patched.setattr(owner, "matmul", counted_matmul)
        trainer.meta_step(state, [task], meta)
    return counts


@pytest.mark.parametrize(("mode", "points"), list(EXPECTED))
def test_meta_step_costs_are_pinned(monkeypatch, mode, points):
    assert count_one_step(monkeypatch, mode, points) == EXPECTED[mode, points]
