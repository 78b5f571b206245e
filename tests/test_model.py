import contextlib
import itertools

import numpy as np
import pytest

from pointmeta import model as model_module
from pointmeta.autodiff import ParamStore, Tape, Tensor, backward, cross_entropy, finite_diff_gradient, grad_array, sum_
from pointmeta.errors import ConfigError, DimensionError
from pointmeta.model import (
    PointNetConfig,
    forward,
    init_params,
    layer_shapes,
    load_checkpoint,
    num_params,
    predict_labels,
    save_checkpoint,
    tnet_transform,
)

MINI = PointNetConfig(
    num_classes=3,
    mlp1_widths=(8, 8),
    mlp2_widths=(8, 16, 32),
    seg_head_widths=(16, 8),
    points_per_block=16,
)
MINI_TNET = PointNetConfig(
    num_classes=3, use_tnet=True, mlp1_widths=(8, 8), mlp2_widths=(8, 16, 32), seg_head_widths=(16, 8)
)


def nudged_tnet(params, rng):
    """``params`` with the T-Net output layer moved off its exact zero init, so its gradient is generic."""
    arrays = {n: a.copy() for n, a in params.items()}
    arrays["tnet.out.w"] += (rng.normal(size=arrays["tnet.out.w"].shape) * 0.05).astype(arrays["tnet.out.w"].dtype)
    return ParamStore(arrays)


def test_init_deterministic_per_seed():
    a = init_params(MINI, seed=5)
    b = init_params(MINI, seed=5)
    assert list(a.keys()) == list(b.keys())
    for name in a.keys():
        assert np.array_equal(a[name], b[name])


def test_init_differs_across_seeds():
    a = init_params(MINI, seed=5)
    b = init_params(MINI, seed=6)
    assert any(not np.array_equal(a[n], b[n]) for n in a.keys())


def test_param_count_matches_closed_form():
    config = PointNetConfig(num_classes=13)
    # hand count from the config arithmetic: dense layers are in*out + out
    dims1 = (9, 64, 64)
    dims2 = (64, 64, 128, 256)
    head = (64 + 256, 128, 64)
    expected = 0
    for dims in (dims1, dims2, head):
        for fan_in, out in zip(dims, dims[1:]):
            expected += fan_in * out + out
    expected += 64 * 13 + 13
    assert num_params(config) == expected
    assert init_params(config, seed=0).num_values() == expected


def test_param_count_independent_of_points_per_block():
    a = PointNetConfig(num_classes=4, points_per_block=64)
    b = PointNetConfig(num_classes=4, points_per_block=4096)
    assert num_params(a) == num_params(b)


def test_forward_permutation_equivariance_bit_exact():
    rng = np.random.default_rng(3)
    # 20 points fit the mlp2 width of 32; on a tape, 40 are gathered to 32 rows
    # before recording, and 80 are gathered for the T-Net's width of 64 as well
    for recording, (config, points) in itertools.product((False, True), ((MINI, 20), (MINI, 40), (MINI_TNET, 80))):
        params = nudged_tnet(init_params(config, seed=1), rng) if config.use_tnet else init_params(config, seed=1)
        block = rng.normal(size=(points, 9)).astype(np.float32)
        perm = rng.permutation(points)
        with Tape() if recording else contextlib.nullcontext():
            out, pooled = forward(config, params, block, return_pooled=True)
            out_p, pooled_p = forward(config, params, block[perm], return_pooled=True)
        assert np.array_equal(out.data[perm], out_p.data)
        assert np.array_equal(pooled.data, pooled_p.data)


def test_untaped_forward_runs_the_pooled_chain_once(monkeypatch):
    # past the mlp2 width of 32 only a recording tape needs the gather, which
    # costs a second, unrecorded pass through the chain
    calls, dense_chain = [], model_module._dense_chain

    def counted(tensors, prefix, n_layers, *parts):
        calls.append(prefix)
        return dense_chain(tensors, prefix, n_layers, *parts)

    monkeypatch.setattr(model_module, "_dense_chain", counted)
    params = init_params(MINI, seed=1)
    block = np.random.default_rng(9).normal(size=(40, 9)).astype(np.float32)
    untaped = forward(MINI, params, block)
    assert calls.count("mlp2") == 1
    with Tape():
        taped = forward(MINI, params, block)
    assert calls.count("mlp2") == 3
    assert np.array_equal(untaped.data, taped.data)


def _chain(params, prefix, n_layers, h):
    # numpy reference of a stack of dense relu layers
    for i in range(n_layers):
        h = np.maximum(h @ params[f"{prefix}.{i}.w"] + params[f"{prefix}.{i}.b"], 0)
    return h


def _concatenated_head_logits(config, params, x):
    # numpy reference with the head applied to concat(local, broadcast(global));
    # every pool, the T-Net's too, takes its maximum over all points
    if config.use_tnet:
        tnet = _chain(params, "tnet.fc", 1, _chain(params, "tnet.mlp", 2, x[:, :3]).max(axis=0, keepdims=True))
        x = np.hstack([x[:, :3] @ (tnet @ params["tnet.out.w"] + params["tnet.out.b"]).reshape(3, 3), x[:, 3:]])
    local = _chain(params, "mlp1", len(config.mlp1_widths), x)
    pooled = _chain(params, "mlp2", len(config.mlp2_widths), local).max(axis=0)
    h = _chain(params, "head", len(config.seg_head_widths),
               np.hstack([local, np.broadcast_to(pooled, (len(x), pooled.size))]))
    return h @ params["out.w"] + params["out.b"]


def test_forward_matches_concatenated_head_reference():
    # the reference pools all rows; at 40 points the network records 32 of
    # them, and at 80 points with the T-Net also 64 for the T-Net's pool
    rng = np.random.default_rng(5)
    for config, points in ((MINI, 20), (MINI, 40), (MINI_TNET, 80)):
        params = init_params(config, seed=4, dtype=np.float64)
        params = nudged_tnet(params, rng) if config.use_tnet else params
        block = rng.normal(size=(points, 9))
        expected = _concatenated_head_logits(config, params, block)
        assert np.allclose(forward(config, params, block).data, expected, rtol=1e-12, atol=1e-12), points


def test_forward_zero_params_uniform_logits():
    params = ParamStore({n: np.zeros_like(a) for n, a in init_params(MINI, seed=0).items()})
    block = np.random.default_rng(0).normal(size=(10, 9)).astype(np.float32)
    logits = forward(MINI, params, block)
    assert np.array_equal(logits.data, np.zeros((10, 3), dtype=np.float32))
    loss = cross_entropy(logits, np.zeros(10, dtype=int))
    assert loss.item() == pytest.approx(np.log(3.0), rel=1e-6)


def test_forward_width_mismatch():
    params = init_params(MINI, seed=0)
    with pytest.raises(DimensionError):
        forward(MINI, params, np.zeros((4, 7), dtype=np.float32))


def test_predict_labels_argmax_and_ties():
    assert np.array_equal(predict_labels(np.array([[0.1, 0.9]])), [1])
    assert np.array_equal(predict_labels(np.array([[0.5, 0.5]])), [0])
    logits = np.array([[0.2, 0.7, 0.1]])
    assert np.array_equal(predict_labels(logits), predict_labels(logits + 3.5))


def test_tnet_identity_at_init():
    config = PointNetConfig(num_classes=3, use_tnet=True, mlp1_widths=(8,), mlp2_widths=(8, 16), seg_head_widths=(8,))
    params = init_params(config, seed=2)
    xyz = np.random.default_rng(1).normal(size=(6, 3)).astype(np.float32)
    out = tnet_transform(config, params, xyz)
    assert np.allclose(out.data, xyz, atol=1e-6)


def test_tnet_requires_flag():
    params = init_params(MINI, seed=0)
    with pytest.raises(ConfigError):
        tnet_transform(MINI, params, np.zeros((4, 3), dtype=np.float32))


def test_tnet_on_equals_off_at_fresh_init():
    base = dict(num_classes=3, mlp1_widths=(8,), mlp2_widths=(8, 16), seg_head_widths=(8,))
    with_tnet = PointNetConfig(use_tnet=True, **base)
    without = PointNetConfig(use_tnet=False, **base)
    # the T-Net is initialized last, so the shared layers get identical draws
    pa = init_params(with_tnet, seed=9)
    pb = init_params(without, seed=9)
    block = np.random.default_rng(2).normal(size=(12, 9)).astype(np.float32)
    assert np.allclose(forward(with_tnet, pa, block).data, forward(without, pb, block).data, atol=1e-5)


def test_tnet_gradient_matches_finite_differences():
    config = PointNetConfig(
        num_classes=2, use_tnet=True, mlp1_widths=(4,), mlp2_widths=(4,), seg_head_widths=(4,)
    )
    rng = np.random.default_rng(4)
    params = nudged_tnet(init_params(config, seed=3, dtype=np.float64), rng)
    xyz = rng.normal(size=(4, 3))

    def loss_of(store):
        with Tape():
            return sum_(tnet_transform(config, store.tensors(), xyz)).item()

    fd = finite_diff_gradient(loss_of, params, eps=1e-5)
    with Tape() as tape:
        tt = params.tensors()
        grads = backward(sum_(tnet_transform(config, tt, xyz)), tape, tt)
    for name in ("tnet.mlp.0.w", "tnet.fc.0.w", "tnet.out.w", "tnet.out.b"):
        ad = grad_array(grads[name])
        # denominator floored at 1e-3: below that the central-difference
        # oracle's own rounding noise (~1e-11 absolute) dominates
        scale = np.maximum(np.maximum(np.abs(ad), np.abs(fd[name])), 1e-3)
        assert (np.abs(ad - fd[name]) / scale).max() <= 1e-6


def test_forward_gradient_with_tnet_matches_finite_differences():
    # covers the split first layer of mlp1: [tnet(xyz), rest] never concatenated;
    # 80 points exceed both pool widths (6 for mlp2, 64 for the T-Net), so both
    # pools record only the gathered rows
    config = PointNetConfig(num_classes=3, use_tnet=True, mlp1_widths=(4,), mlp2_widths=(4, 6), seg_head_widths=(4,))
    rng = np.random.default_rng(6)
    params = nudged_tnet(init_params(config, seed=5, dtype=np.float64), rng)
    for points in (6, 80):
        block = rng.normal(size=(points, 9))
        labels = rng.integers(0, 3, size=points)

        def loss_of(store):
            with Tape():
                return cross_entropy(forward(config, store.tensors(), block), labels).item()

        fd = finite_diff_gradient(loss_of, params, eps=1e-5)
        with Tape() as tape:
            tt = params.tensors()
            grads = backward(cross_entropy(forward(config, tt, block), labels), tape, tt)
        for name in params.keys():
            ad = grad_array(grads[name])
            scale = np.maximum(np.maximum(np.abs(ad), np.abs(fd[name])), 1e-3)
            assert (np.abs(ad - fd[name]) / scale).max() <= 1e-6, (points, name)


def test_tape_shapes_fixed_past_pool_width():
    # two 100-point blocks whose mlp2 pools peak on different numbers of
    # distinct rows record the same node shapes, forward and double backward:
    # the pool records exactly its width of 32 rows either way
    rng = np.random.default_rng(8)
    params = init_params(MINI, seed=2)
    blocks = [rng.normal(size=(100, 9)).astype(np.float32) for _ in range(2)]
    labels = rng.integers(0, 3, size=100)

    def recorded_shapes(block):
        with Tape() as tape:
            tt = params.tensors()
            backward(cross_entropy(forward(MINI, tt, block), labels), tape, tt, create_graph=True)
            return [node.shape for node in tape.nodes]

    def peak_rows(block):
        deep = _chain(params, "mlp2", len(MINI.mlp2_widths), _chain(params, "mlp1", len(MINI.mlp1_widths), block))
        return np.unique(np.argmax(deep, axis=0)).size

    assert peak_rows(blocks[0]) != peak_rows(blocks[1])
    assert recorded_shapes(blocks[0]) == recorded_shapes(blocks[1])


def test_config_validation():
    with pytest.raises(ConfigError):
        PointNetConfig(num_classes=1)
    with pytest.raises(ConfigError):
        PointNetConfig(num_classes=3, mlp1_widths=())
    with pytest.raises(ConfigError):
        PointNetConfig(num_classes=3, seg_head_widths=(0,))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for dtype in (np.float32, np.float64):
        params = init_params(MINI, seed=7, dtype=dtype)
        path = tmp_path / f"ckpt_{np.dtype(dtype).name}"
        save_checkpoint(path, MINI, params)
        config2, params2 = load_checkpoint(path)
        assert config2 == MINI
        assert list(params2.keys()) == list(params.keys())
        for name in params.keys():
            assert params2[name].dtype == params[name].dtype
            assert np.array_equal(
                params[name].view(np.uint8) if params[name].ndim else params[name],
                params2[name].view(np.uint8) if params2[name].ndim else params2[name],
            )


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_layer_shapes_order_stable():
    names = [n for n, _ in layer_shapes(MINI)]
    assert names[0] == "mlp1.0.w"
    assert names[-2:] == ["out.w", "out.b"]
