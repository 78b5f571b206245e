import numpy as np
import pytest

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
    params = init_params(MINI, seed=1)
    block = rng.normal(size=(20, 9)).astype(np.float32)
    perm = rng.permutation(20)
    out, pooled = forward(MINI, params, block, return_pooled=True)
    out_p, pooled_p = forward(MINI, params, block[perm], return_pooled=True)
    assert np.array_equal(out.data[perm], out_p.data)
    assert np.array_equal(pooled.data, pooled_p.data)


def _concatenated_head_logits(config, params, x):
    # numpy reference with the head applied to concat(local, broadcast(global))
    def chain(prefix, n_layers, h):
        for i in range(n_layers):
            h = np.maximum(h @ params[f"{prefix}.{i}.w"] + params[f"{prefix}.{i}.b"], 0)
        return h

    local = chain("mlp1", len(config.mlp1_widths), x)
    pooled = chain("mlp2", len(config.mlp2_widths), local).max(axis=0)
    h = chain("head", len(config.seg_head_widths), np.hstack([local, np.broadcast_to(pooled, (len(x), pooled.size))]))
    return h @ params["out.w"] + params["out.b"]


def test_forward_matches_concatenated_head_reference():
    params = init_params(MINI, seed=4, dtype=np.float64)
    block = np.random.default_rng(5).normal(size=(20, 9))
    expected = _concatenated_head_logits(MINI, params, block)
    assert np.allclose(forward(MINI, params, block).data, expected, rtol=1e-12, atol=1e-12)


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
    params = init_params(config, seed=3, dtype=np.float64)
    # nudge the tnet output layer off the exact zero init so its gradient is generic
    arrays = {n: a.copy() for n, a in params.items()}
    rng = np.random.default_rng(4)
    arrays["tnet.out.w"] += rng.normal(size=arrays["tnet.out.w"].shape) * 0.05
    params = ParamStore(arrays)
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
    # covers the split first layer of mlp1: [tnet(xyz), rest] never concatenated
    config = PointNetConfig(num_classes=3, use_tnet=True, mlp1_widths=(4,), mlp2_widths=(4, 6), seg_head_widths=(4,))
    params = init_params(config, seed=5, dtype=np.float64)
    arrays = {n: a.copy() for n, a in params.items()}
    rng = np.random.default_rng(6)
    arrays["tnet.out.w"] += rng.normal(size=arrays["tnet.out.w"].shape) * 0.05
    params = ParamStore(arrays)
    block = rng.normal(size=(6, 9))
    labels = rng.integers(0, 3, size=6)

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
        assert (np.abs(ad - fd[name]) / scale).max() <= 1e-6, name


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
