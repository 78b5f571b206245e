import contextlib
import itertools

import numpy as np
import pytest

from helpers import num_params, num_values
from pointmeta import autodiff as autodiff_module
from pointmeta import model as model_module
from pointmeta.autodiff import ParamStore, Tape, Tensor, backward, cross_entropy, finite_diff_gradient, grad_array, sum_
from pointmeta.errors import ConfigError, DimensionError
from pointmeta.model import (
    PointNetConfig,
    forward,
    init_params,
    layer_shapes,
    load_checkpoint,
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
    assert num_values(init_params(config, seed=0)) == expected


def test_param_count_independent_of_points_per_block():
    a = PointNetConfig(num_classes=4, points_per_block=64)
    b = PointNetConfig(num_classes=4, points_per_block=4096)
    assert num_params(a) == num_params(b)


def _blocks(rng, points) -> dict[str, np.ndarray]:
    """Random normal rows; the same rows resampled with replacement, as a sparse block is, so rows
    repeat; and rows tied in column 0 but not elsewhere."""
    block = rng.normal(size=(points, 9)).astype(np.float32)
    tied = block.copy()
    tied[:, 0] = rng.choice(block[:3, 0], size=points)
    return {"distinct": block, "duplicated": block[rng.integers(0, points, size=points)], "column 0 tied": tied}


def test_forward_permutation_equivariance_bit_exact():
    rng = np.random.default_rng(3)
    # 20 points fit the mlp2 width of 32 and the T-Net's of 64; on a tape, 40 are gathered
    # to 32 rows before recording, and 80 are gathered for the T-Net's width of 64 as well.
    # On a tape the logits are also swept back, seeded with themselves, so a row's seed
    # depends on its contents alone: the weight gradients sum rows in the canonical order
    cases = ((MINI, 20), (MINI, 40), (MINI_TNET, 20), (MINI_TNET, 80))

    def run(config, params, block, recording):
        with Tape() if recording else contextlib.nullcontext() as tape:
            tensors = params.tensors()
            out, pooled = forward(config, tensors, block, return_pooled=True)
            grads = backward({out: out.data}, tape, tensors) if recording else {}
        return out.data, pooled.data, {name: grad_array(g) for name, g in grads.items()}

    for kind, recording, (config, points) in itertools.product(("distinct", "duplicated", "column 0 tied"), (False, True), cases):
        params = nudged_tnet(init_params(config, seed=1), rng) if config.use_tnet else init_params(config, seed=1)
        block = _blocks(rng, points)[kind]
        perm = rng.permutation(points)
        (out, pooled, grads), (out_p, pooled_p, grads_p) = run(config, params, block, recording), run(config, params, block[perm], recording)
        assert np.array_equal(out[perm], out_p) and np.array_equal(pooled, pooled_p), (kind, recording, points)
        assert all(np.array_equal(grads[name], grads_p[name]) for name in grads), (kind, points)


def test_taped_and_untaped_forwards_run_one_pooled_path(monkeypatch):
    # past the mlp2 width of 32 both forwards run the selection pass, three
    # unrecorded products over all 40 rows, then mlp2's first two layers on the
    # 32 gathered rows and its last layer as a row-wise product: the same
    # operations, so the same bits
    calls, dense_chain, products, matmul = [], model_module._dense_chain, [], model_module.matmul

    def counted(tensors, prefix, n_layers, *parts):
        calls.append((prefix, n_layers))
        return dense_chain(tensors, prefix, n_layers, *parts)

    def counted_matmul(a, b):
        products.append((a.shape, b.shape, a.node is None and b.node is None))
        return matmul(a, b)

    monkeypatch.setattr(model_module, "_dense_chain", counted)
    monkeypatch.setattr(model_module, "matmul", counted_matmul)
    params = init_params(MINI, seed=1)
    block = np.random.default_rng(9).normal(size=(40, 9)).astype(np.float32)
    untaped = forward(MINI, params, block)
    seen = list(calls), [(a, b) for a, b, _ in products]
    del calls[:], products[:]
    with Tape():
        taped = forward(MINI, params, block)
    assert (calls, [(a, b) for a, b, _ in products]) == seen
    assert ("mlp2", 2) in calls and ("mlp2", 3) not in calls
    # on the tape, the products of the selection pass are the only ones between constants
    assert [(a, b) for a, b, constant in products if constant] == [((40, 8), (8, 8)), ((40, 8), (8, 16)), ((32, 16), (16, 40))]
    assert ((32, 8), (8, 8), False) in products and ((32, 8), (8, 16), False) in products
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(("config", "prefix", "n_layers", "width"), [(MINI, "mlp2", 3, 32), (MINI_TNET, "tnet.mlp", 2, 64)],
                         ids=["mlp2", "tnet"])
@pytest.mark.parametrize("excess", [1, 4], ids=["F+1", "4F"])
def test_pool_gathers_each_columns_first_maximum(monkeypatch, config, prefix, n_layers, width, dtype, excess):
    arrays = {n: a.copy() for n, a in init_params(config, seed=2, dtype=dtype).items()}
    # dead units: the last layer's column 0 is negative on every row before its relu and column 1
    # exactly 0, so both are 0 after it, their first maximum is row 0 and they pass back no gradient
    last_w, last_b = f"{prefix}.{n_layers - 1}.w", f"{prefix}.{n_layers - 1}.b"
    arrays[last_b][:2] = -1e3, 0
    arrays[last_w][:, 1] = 0
    points = width + 1 if excess == 1 else 4 * width
    rng = np.random.default_rng(points)
    x = rng.normal(size=(points, arrays[f"{prefix}.0.w"].shape[0])).astype(dtype)
    x[points // 2:points // 2 + 3] = x[points // 3]  # duplicated rows tie in every column
    gathered, take_rows = [], model_module.take_rows

    def recorded(a, rows):
        gathered.append(rows)
        return take_rows(a, rows)

    monkeypatch.setattr(model_module, "take_rows", recorded)
    with Tape() as tape:
        tensors = ParamStore(arrays).tensors()
        pooled = model_module._pooled_chain(tensors, prefix, n_layers, Tensor(x))
        grads = backward(sum_(pooled), tape, tensors)
    deep = _chain(arrays, prefix, n_layers, x)
    # one row per column, in column order: the relu'd reference's argmax is row 0 for a dead column
    assert len(gathered) == 1 and np.array_equal(gathered[0], np.argmax(deep, axis=0)) and not gathered[0][:2].any()
    # numpy's row sum takes each column's value, where BLAS summed the reference's
    rtol = 1e-12 if dtype == np.float64 else 1e-6
    np.testing.assert_allclose(pooled.data, deep.max(axis=0, keepdims=True), rtol=rtol, atol=0)
    assert not pooled.data[0, :2].any() and pooled.data[0, 2:].any()
    assert not grad_array(grads[last_w])[:, :2].any() and not grad_array(grads[last_b])[:2].any()


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


def test_tape_shapes_fixed_past_pool_width(monkeypatch):
    # two 100-point blocks whose mlp2 pools peak on different numbers of
    # distinct rows run the same matmul shapes and gather the same numbers of
    # rows, forward and double backward: the pool records exactly its width
    # of 32 rows either way
    rng = np.random.default_rng(8)
    params = init_params(MINI, seed=2)
    blocks = [rng.normal(size=(100, 9)).astype(np.float32) for _ in range(2)]
    labels = rng.integers(0, 3, size=100)
    matmul, take_rows = autodiff_module.matmul, autodiff_module.take_rows

    def recorded_shapes(block):
        shapes = []

        def shaped_matmul(a, b):
            shapes.append(("matmul", a.shape, b.shape))
            return matmul(a, b)

        def counted_take_rows(a, rows):
            out = take_rows(a, rows)
            shapes.append(("take_rows", out.shape[0]))  # the length of the index
            return out

        with monkeypatch.context() as patched:
            for owner in (model_module, autodiff_module):
                patched.setattr(owner, "matmul", shaped_matmul)
                patched.setattr(owner, "take_rows", counted_take_rows)
            with Tape() as tape:
                tt = params.tensors()
                grads = backward(cross_entropy(forward(MINI, tt, block), labels), tape, tt, create_graph=True)
                backward(sum_(grads["mlp2.0.w"]), tape, tt)
        return shapes

    def peak_rows(block):
        deep = _chain(params, "mlp2", len(MINI.mlp2_widths), _chain(params, "mlp1", len(MINI.mlp1_widths), block))
        return np.unique(np.argmax(deep, axis=0)).size

    assert peak_rows(blocks[0]) != peak_rows(blocks[1])
    shapes = recorded_shapes(blocks[0])
    assert ("take_rows", 32) in shapes and ("take_rows", 100) in shapes
    assert shapes == recorded_shapes(blocks[1])


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


def test_checkpoint_save_that_fails_keeps_the_old_file(tmp_path):
    # the last parameter reads once, for the header, then fails while the bytes are gathered
    path = tmp_path / "ckpt"
    params = init_params(MINI, seed=7)
    save_checkpoint(path, MINI, params)
    before, last, reads = path.read_bytes(), list(params.keys())[-1], []

    class LostMidWrite(ParamStore):
        def __getitem__(self, name):
            reads.append(name)
            if name == last and reads.count(name) > 1:
                raise OSError("parameter lost")
            return super().__getitem__(name)

    with pytest.raises(OSError, match="parameter lost"):
        save_checkpoint(path, MINI, LostMidWrite(init_params(MINI, seed=8)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_layer_shapes_order_stable():
    names = [n for n, _ in layer_shapes(MINI)]
    assert names[0] == "mlp1.0.w"
    assert names[-2:] == ["out.w", "out.b"]
