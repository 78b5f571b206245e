import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmeta import autodiff as autodiff_module
from pointmeta.autodiff import (
    ParamStore,
    Tape,
    Tensor,
    add,
    backward,
    cross_entropy,
    div,
    exp,
    finite_diff_gradient,
    grad_array,
    matmul,
    max_over_points,
    mul,
    relu,
    scatter_rows,
    sgd_step,
    sub,
    sum_,
    take_rows,
)
from pointmeta.errors import ContractError, DimensionError, ValidationError


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_selector_row():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0], [7.0]])
    assert np.array_equal(matmul(a, b).data, [[5.0], [0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)

    def loss_of(store):
        with Tape() as tape:
            tt = store.tensors()
            return sum_(matmul(tt["a"], tt["b"])).item()

    for shapes in (((3, 3), (3, 3)), ((4, 1), (1, 3))):  # an inner size of 1 is computed as a product
        params = ParamStore({"a": rng.normal(size=shapes[0]), "b": rng.normal(size=shapes[1])})
        for dtype in (np.float32, np.float64):
            a, b = params["a"].astype(dtype), params["b"].astype(dtype)
            product = matmul(Tensor(a), Tensor(b)).data
            assert product.dtype == dtype and np.array_equal(product, a @ b)
        fd = finite_diff_gradient(loss_of, params, eps=1e-5)
        with Tape() as tape:
            tt = params.tensors()
            loss = sum_(matmul(tt["a"], tt["b"]))
            grads = backward(loss, tape, tt)
        for name in params.keys():
            rel = np.abs(grads[name].data - fd[name]) / np.maximum(np.abs(fd[name]), 1e-12)
            assert rel.max() <= 1e-7, shapes


def test_relu_values_and_gradients():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        y = relu(x)
        assert np.array_equal(y.data, [0.0, 0.0, 2.0])
        g = backward(sum_(y), tape, {"x": x})
    # gradient 1 where x > 0, 0 at and below 0 (subgradient convention)
    assert np.array_equal(g["x"].data, [0.0, 0.0, 1.0])


def test_relu_gradient_at_scalar_points():
    for value, expected in [(3.0, 1.0), (-3.0, 0.0), (0.0, 0.0)]:
        x = Tensor(np.array(value), requires_grad=True)
        with Tape() as tape:
            g = backward(relu(x), tape, {"x": x})
        assert g["x"].data == expected


def pooled_and_routing(x):
    """max_over_points of ``x`` and d sum(pooled) / dx, the 0/1 map of each feature's argmax row."""
    x = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        pooled = max_over_points(x)
        g = backward(sum_(pooled), tape, {"x": x})
    return pooled, g["x"].data


def test_max_over_points_values_and_argmax():
    pooled, routing = pooled_and_routing([[1.0, 5.0], [3.0, 2.0]])
    assert np.array_equal(pooled.data, [[3.0, 5.0]])
    assert np.array_equal(np.argmax(routing, axis=0), [1, 0])
    assert np.array_equal(routing.sum(axis=0), [1.0, 1.0])


def test_max_over_points_single_point():
    pooled, routing = pooled_and_routing([[4.0, 4.0]])
    assert np.array_equal(pooled.data, [[4.0, 4.0]])
    assert np.array_equal(routing, [[1.0, 1.0]])


def test_max_over_points_empty_error():
    with pytest.raises(DimensionError):
        max_over_points(Tensor(np.zeros((0, 3))))


def test_max_over_points_routes_gradient_to_argmax_only():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
    with Tape() as tape:
        pooled = max_over_points(x)
        g = backward(sum_(pooled), tape, {"x": x})
    assert np.array_equal(g["x"].data, [[0.0, 1.0], [1.0, 0.0]])


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_max_over_points_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(7, 4))
    perm = rng.permutation(7)
    pooled = max_over_points(Tensor(x))
    permuted = max_over_points(Tensor(x[perm]))
    assert np.array_equal(pooled.data, permuted.data)


def _row_op(kind, rows):
    """A row op on 5-row tensors and the 0/1 matrix ``m`` with op(z) == m @ z."""
    select = np.eye(5)[rows]
    if kind == "take":
        return (lambda z: take_rows(z, rows)), select
    return (lambda z: scatter_rows(z, rows, 5)), select.T


def _cubic(op, c, x):
    # sum(c * op(x)^3): its gradient still depends on x, so it has a second order
    y = op(x)
    return sum_(Tensor(c) * y * y * y)


# the repeated rows are named twice each, so a scatter's sums have the bits of m @ z in any order
ROWS = pytest.mark.parametrize("rows", [slice(1, 4), np.array([3, 0, 4, 1, 2]), np.array([3, 0, 3, 1, 4, 0])],
                               ids=["slice", "permutation", "repeated"])
KINDS = pytest.mark.parametrize("kind", ["take", "scatter"])


@ROWS
@KINDS
def test_row_ops_values(kind, rows):
    op, m = _row_op(kind, rows)
    x = np.random.default_rng(0).normal(size=(m.shape[1], 3))
    assert np.array_equal(op(Tensor(x)).data, m @ x)


@ROWS
@KINDS
def test_row_ops_gradient_matches_finite_differences(kind, rows):
    op, m = _row_op(kind, rows)
    rng = np.random.default_rng(1)
    params = ParamStore({"x": rng.normal(size=(m.shape[1], 3))})
    c = rng.normal(size=(m.shape[0], 3))

    def loss_of(store):
        with Tape():
            return _cubic(op, c, store.tensors()["x"]).item()

    fd = finite_diff_gradient(loss_of, params, eps=1e-5)["x"]
    with Tape() as tape:
        tt = params.tensors()
        ad = backward(_cubic(op, c, tt["x"]), tape, tt)["x"].data
    assert ad.dtype == np.float64
    assert (np.abs(ad - fd) / np.maximum(np.abs(fd), 1e-3)).max() <= 1e-7


@ROWS
@KINDS
def test_row_ops_gradient_of_gradient(kind, rows):
    op, m = _row_op(kind, rows)
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(m.shape[1], 3))
    c = rng.normal(size=(m.shape[0], 3))
    v = rng.normal(size=x0.shape)
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        g = backward(_cubic(op, c, x), tape, {"x": x}, create_graph=True)["x"]
        hv = backward(sum_(Tensor(v) * g), tape, {"x": x})["x"]
    # L = sum(c * (m x)^3) gives d/dx sum(v * dL/dx) = m^T (6 c (m v) (m x))
    assert np.allclose(hv.data, m.T @ (6 * c * (m @ v) * (m @ x0)), rtol=1e-12, atol=1e-12)


def test_scatter_adds_repeated_rows():
    a = np.arange(6.0).reshape(3, 2) + 1
    assert np.array_equal(scatter_rows(a, np.array([1, 1, 0]), 3).data, [[5, 6], [4, 6], [0, 0]])


def test_scatter_by_unique_rows_has_the_bytes_of_assignment():
    rng = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        a = rng.normal(size=(4, 3)).astype(dtype)
        a[3, 0] = 0.0
        rows = np.array([6, 0, 3, 5])
        assigned = np.zeros((7, 3), dtype=dtype)
        assigned[rows] = a
        assert scatter_rows(a, rows, 7).data.tobytes() == assigned.tobytes()
        # a sum from zero: -0.0 comes back as 0.0, the one value whose bytes move
        a[1, 2] = -0.0
        assert np.signbit(scatter_rows(a, rows, 7).data).sum() == np.signbit(a).sum() - 1


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(Tensor(np.zeros((5, 13))), np.zeros(5, dtype=int))
    assert loss.item() == pytest.approx(np.log(13.0), rel=1e-12)


def test_cross_entropy_confident_correct():
    labels = np.array([0, 1, 2])
    logits = np.full((3, 3), -1e6)
    logits[np.arange(3), labels] = 1e6
    loss = cross_entropy(Tensor(logits), labels)
    assert 0.0 <= loss.item() < 1e-9


def test_cross_entropy_hand_evaluated():
    # softplus(-1) = log(1 + e^-1), from evaluating the softmax by hand
    loss = cross_entropy(Tensor([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
    assert loss.item() == pytest.approx(np.log1p(np.exp(-1.0)), rel=1e-12)


def test_cross_entropy_bad_label_names_point():
    with pytest.raises(ValidationError, match="point 1"):
        cross_entropy(Tensor(np.zeros((3, 2))), [0, 5, 1])


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cross_entropy_nonnegative_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(6, 4)) * 3
    labels = rng.integers(0, 4, size=6)
    base = cross_entropy(Tensor(logits), labels).item()
    shifted = cross_entropy(Tensor(logits + rng.normal(size=(6, 1))), labels).item()
    assert base >= 0.0
    assert shifted == pytest.approx(base, abs=1e-9)


def test_backward_sum_gives_ones():
    p = ParamStore({"w": np.arange(6, dtype=np.float64).reshape(2, 3)})
    with Tape() as tape:
        tt = p.tensors()
        g = backward(sum_(tt["w"]), tape, tt)
    assert np.array_equal(g["w"].data, np.ones((2, 3)))


def test_backward_composite_quadratic():
    p = ParamStore({"w": np.array(3.0)})
    with Tape() as tape:
        tt = p.tensors()
        loss = (tt["w"] - 1.0) * (tt["w"] - 1.0)
        g = backward(loss, tape, tt)
    assert g["w"].data == pytest.approx(4.0)


def test_backward_requires_scalar_loss():
    p = ParamStore({"w": np.ones(3)})
    with Tape() as tape:
        tt = p.tensors()
        vec = tt["w"] * 2.0
        with pytest.raises(ContractError):
            backward(vec, tape, tt)


def test_backward_requires_loss_on_tape():
    p = ParamStore({"w": np.ones(())})
    with Tape() as tape:
        pass
    loss = Tensor(np.array(1.0))
    with pytest.raises(ContractError):
        backward(loss, tape, {"w": Tensor(p["w"])})


def test_backward_seeded_output_on_another_tape_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as other:
        elsewhere = x * 2.0
        with Tape() as tape:
            here = x * 3.0
            for outputs in ({here: np.ones(3), elsewhere: np.ones(3)}, {x: np.ones(3)}, {Tensor(np.ones(3)): np.ones(3)}):
                with pytest.raises(ContractError, match="tape"):
                    backward(outputs, tape, {"x": x})
            assert backward({here: np.ones(3)}, tape, {"x": x})["x"].data.tolist() == [3.0, 3.0, 3.0]


def test_backward_seed_of_wrong_shape_raises():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
        for seed in (np.ones(3), np.ones((3, 2)), np.ones(()), 1.0):  # broadcastable is not enough
            with pytest.raises(ContractError, match="seed shape"):
                backward({y: seed}, tape, {"x": x})


def test_backward_seeds_give_the_gradient_of_the_weighted_sum():
    # outputs a = x e^x ([3, 4]) and b = sum(relu(x), axis=0) ([4]) seeded with
    # u and v: the gradient u (1 + x) e^x + v (x > 0) of sum(u a) + sum(v b),
    # with the same bits, and differentiable again: w u (2 + x) e^x
    rng = np.random.default_rng(5)
    x0, u, v, w = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(3, 4))

    def gradients(seeded):
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            a, b = mul(x, exp(x)), sum_(relu(x), axis=0)
            loss = {a: u, b: v} if seeded else add(sum_(mul(a, Tensor(u))), sum_(mul(b, Tensor(v))))
            g = backward(loss, tape, {"x": x}, create_graph=True)["x"]
            h = backward(sum_(mul(g, Tensor(w))), tape, {"x": x})["x"]
        return g.data, h.data

    (g, h), (g_sum, h_sum) = gradients(True), gradients(False)
    assert np.array_equal(g, g_sum) and np.array_equal(h, h_sum)
    np.testing.assert_allclose(g, u * (1 + x0) * np.exp(x0) + v * (x0 > 0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(h, w * u * (2 + x0) * np.exp(x0), rtol=1e-12, atol=1e-12)


def test_backward_sums_in_place_only_into_arrays_it_made(monkeypatch):
    # s = a + b: add's vjp hands s's gradient, itself a sum of three, to a and b as one array; a
    # and b then take three more contributions each (b two from b * b), and a is in wrt.  A sweep
    # without create_graph adds in numpy, in place after a node's second contribution: the same bits
    # as create_graph, which sums with add, and never a write into a seed, a vjp's output or a result
    rng = np.random.default_rng(13)
    x0, w0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    seeds = {name: rng.normal(size=(4, 3)) for name in ("u", "v", "d", "q", "y1", "y2", "y3")}
    before = {name: seed.copy() for name, seed in seeds.items()}

    def sweep(create_graph):
        x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
        with Tape() as tape:
            a, b = mul(x, w), exp(x)
            u, v, d, q = mul(a, 2.0), relu(a), sub(b, a), mul(b, b)
            s = add(a, b)
            y1, y2, y3 = mul(s, 3.0), exp(s), relu(s)
            outputs = dict(zip(seeds, (u, v, d, q, y1, y2, y3)))
            grads = backward({outputs[name]: seed for name, seed in seeds.items()}, tape, {"x": x, "w": w, "a": a},
                             create_graph=create_graph)
        return {name: g.data for name, g in grads.items()}

    recorded = sweep(True)
    adds, add_primitive = [], autodiff_module.add
    monkeypatch.setattr(autodiff_module, "add", lambda *args: adds.append(args) or add_primitive(*args))
    first = sweep(False)
    assert not adds
    kept = {name: g.copy() for name, g in first.items()}
    assert all(np.array_equal(first[name], recorded[name]) for name in recorded)
    assert all(np.array_equal(seeds[name], before[name]) for name in seeds)
    second = sweep(False)
    assert all(np.array_equal(first[name], kept[name]) and np.array_equal(second[name], kept[name]) for name in kept)
    assert all(np.array_equal(seeds[name], before[name]) for name in seeds)


def test_backward_untouched_parameter_gets_zeros():
    p = ParamStore({"a": np.ones(2), "b": np.ones(3)})
    with Tape() as tape:
        tt = p.tensors()
        g = backward(sum_(tt["a"]), tape, tt)
    assert np.array_equal(g["b"].data, np.zeros(3))


def test_backward_linearity():
    rng = np.random.default_rng(7)
    p = ParamStore({"w": rng.normal(size=(4,))})

    def grad_of(scale1, scale2):
        with Tape() as tape:
            tt = p.tensors()
            l1 = sum_(tt["w"] * tt["w"])
            l2 = sum_(relu(tt["w"]))
            g = backward(scale1 * l1 + scale2 * l2, tape, tt)
        return g["w"].data

    combined = grad_of(2.0, -3.0)
    separate = 2.0 * grad_of(1.0, 0.0) - 3.0 * grad_of(0.0, 1.0)
    assert np.allclose(combined, separate, rtol=1e-12, atol=1e-12)


def test_gradients_deterministic_for_fixed_tape():
    rng = np.random.default_rng(11)
    p = ParamStore({"w": rng.normal(size=(5, 3))})

    def run():
        with Tape() as tape:
            tt = p.tensors()
            h = relu(matmul(tt["w"], Tensor(rng_fixed)))
            g = backward(sum_(h), tape, tt)
        return g["w"].data

    rng_fixed = np.random.default_rng(12).normal(size=(3, 2))
    assert np.array_equal(run(), run())


def test_finite_diff_simple_square():
    p = ParamStore({"w": np.array(1.0)})
    fd = finite_diff_gradient(lambda s: float(s["w"] ** 2), p, eps=1e-4)
    assert abs(fd["w"] - 2.0) <= 1e-7


def test_finite_diff_constant_function():
    p = ParamStore({"w": np.ones(4)})
    fd = finite_diff_gradient(lambda s: 5.0, p, eps=1e-4)
    assert np.array_equal(fd["w"], np.zeros(4))


def test_finite_diff_abs_away_from_kink():
    p = ParamStore({"w": np.array(0.5)})
    fd = finite_diff_gradient(lambda s: float(abs(s["w"])), p, eps=1e-5)
    assert fd["w"] == pytest.approx(1.0, abs=1e-9)


def test_sgd_step_zero_lr_keeps_params():
    p = ParamStore({"w": np.array([1.0, -2.0])})
    out = sgd_step(p, {"w": Tensor(np.array([5.0, 5.0]))}, lr=0.0)
    assert np.array_equal(out["w"], p["w"])


def test_sgd_step_arithmetic():
    p = ParamStore({"w": np.array(1.0)})
    out = sgd_step(p, {"w": Tensor(np.array(2.0))}, lr=0.1)
    assert out["w"] == pytest.approx(0.8)
    assert p["w"] == 1.0  # functional update


def test_sgd_two_steps_on_square():
    # d(w^2)/dw = 2w; from w=1 with lr 0.25 the iterates are 0.5 then 0.25
    p = ParamStore({"w": np.array(1.0)})
    for expected in (0.5, 0.25):
        with Tape() as tape:
            tt = p.tensors()
            g = backward(tt["w"] * tt["w"], tape, tt)
        p = sgd_step(p, g, lr=0.25)
        assert p["w"] == pytest.approx(expected)


def test_sgd_step_missing_key():
    p = ParamStore({"w": np.ones(2), "b": np.ones(1)})
    with pytest.raises(ContractError, match="b"):
        sgd_step(p, {"w": Tensor(np.ones(2))}, lr=0.1)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-7)])
def test_random_network_gradients_match_finite_differences(dtype, tol):
    rng = np.random.default_rng(21)
    params = ParamStore(
        {
            "w1": rng.normal(size=(4, 5)) * 0.5,
            "b1": rng.normal(size=(5,)) * 0.1,
            "w2": rng.normal(size=(5, 3)) * 0.5,
            "b2": rng.normal(size=(3,)) * 0.1,
        },
        dtype=dtype,
    )
    x = rng.normal(size=(6, 4)).astype(dtype)
    labels = rng.integers(0, 3, size=6)

    def loss_of(store):
        with Tape():
            tt = store.tensors()
            h = relu(matmul(Tensor(x), tt["w1"]) + tt["b1"])
            logits = matmul(h, tt["w2"]) + tt["b2"]
            return cross_entropy(logits, labels).item()

    fd = finite_diff_gradient(loss_of, params.astype(np.float64), eps=1e-5)
    with Tape() as tape:
        tt = params.tensors()
        h = relu(matmul(Tensor(x), tt["w1"]) + tt["b1"])
        loss = cross_entropy(matmul(h, tt["w2"]) + tt["b2"], labels)
        grads = backward(loss, tape, tt)

    checked = 0
    for name in params.keys():
        ad = grad_array(grads[name]).astype(np.float64)
        ref = fd[name]
        scale = np.maximum(np.maximum(np.abs(ad), np.abs(ref)), 1e-8)
        mask = np.maximum(np.abs(ad), np.abs(ref)) > 1e-8
        assert (np.abs(ad - ref) / scale)[mask].max() <= tol
        checked += int(mask.sum())
    assert checked > 0


def test_second_order_gradients_through_inner_step():
    # phi = w - beta * dLs/dw with Ls = (w-a)^2, then Lq = (phi-b)^2;
    # dLq/dw = (1 - 2 beta) * 2 (phi - b)
    for a, b, w0, beta in [(1.0, 2.0, 0.0, 0.25), (-0.5, 3.0, 1.5, 0.1)]:
        params = ParamStore({"w": np.array(w0)})
        with Tape() as tape:
            tt = params.tensors()
            ls = (tt["w"] - a) * (tt["w"] - a)
            gs = backward(ls, tape, tt, create_graph=True)
            phi = tt["w"] - beta * gs["w"]
            lq = (phi - b) * (phi - b)
            g = backward(lq, tape, tt)
        phi_val = w0 - beta * 2 * (w0 - a)
        expected = (1 - 2 * beta) * 2 * (phi_val - b)
        assert g["w"].data == pytest.approx(expected, rel=1e-12)


def _summed_products(axis, keepdims):
    # L = sum(s * s) with s = sum(x * y, axis): gradients 2 s y and 2 s x; the
    # probe sum(u * dL/dx + w * dL/dy) has gradients 2 y r + 2 s w and 2 x r + 2 s u,
    # where r = sum(u * y + w * x, axis)
    def loss(x, y):
        s = sum_(mul(x, y), axis=axis, keepdims=keepdims)
        return sum_(mul(s, s))

    def closed(x, y, u, w):
        s, r = (x * y).sum(axis, keepdims=keepdims), (u * y + w * x).sum(axis, keepdims=keepdims)
        return 2 * s * y, 2 * s * x, 2 * y * r + 2 * s * w, 2 * x * r + 2 * s * u

    return loss, closed, (3, 4)


def _cubed_difference():
    # L = sum((x - y)^3) with y broadcast over rows: d = x - y, gradients 3 d^2 and
    # -sum_rows(3 d^2); the probe has gradients 6 d (u - w) and -sum_rows(6 d (u - w))
    def loss(x, y):
        d = sub(x, y)
        return sum_(mul(mul(d, d), d))

    def closed(x, y, u, w):
        d = x - y
        return 3 * d * d, -(3 * d * d).sum(0, keepdims=True), 6 * d * (u - w), -(6 * d * (u - w)).sum(0, keepdims=True)

    return loss, closed, (1, 4)


def _quotient():
    # L = sum(x / y): gradients 1 / y and -x / y^2; the probe has gradients
    # -w / y^2 and -u / y^2 + 2 w x / y^3
    def closed(x, y, u, w):
        return 1 / y, -x / y**2, -w / y**2, -u / y**2 + 2 * w * x / y**3

    return lambda x, y: sum_(div(x, y)), closed, (3, 4)


@pytest.mark.parametrize(
    "case", [_cubed_difference(), _quotient(), _summed_products(None, False), _summed_products(1, True)],
    ids=["sub", "div", "sum-all", "sum-axis1-keepdims"],
)
def test_gradient_of_gradient_closed_form(case):
    loss, closed, y_shape = case
    rng = np.random.default_rng(4)
    x0, u = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    y0, w = rng.uniform(0.5, 2.0, size=y_shape), rng.normal(size=y_shape)
    x, y = Tensor(x0, requires_grad=True), Tensor(y0, requires_grad=True)
    with Tape() as tape:
        g = backward(loss(x, y), tape, {"x": x, "y": y}, create_graph=True)
        probe = add(sum_(mul(Tensor(u), g["x"])), sum_(mul(Tensor(w), g["y"])))
        h = backward(probe, tape, {"x": x, "y": y})
    for got, want in zip((g["x"], g["y"], h["x"], h["y"]), closed(x0, y0, u, w)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_tape_exit_frees_the_graph():
    # the caller still holds the tape and the loss after the block, as meta_gradient does;
    # with the cyclic collector off, only refcounting can free the intermediate
    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            hidden = exp(x * x)  # exp's vjp closes over its own output
            loss = sum_(hidden)
            backward(loss, tape, {"x": x}, create_graph=True)
            alive = weakref.ref(hidden)
            del hidden
        assert alive() is None
    finally:
        gc.enable()
    assert len(tape) == 0 and loss.node.parents == ()


def test_tape_keeps_only_what_the_backward_reads():
    # with the cyclic collector off, an array lives only while something holds it:
    # a node never holds its output, and a vjp holds only what it reads
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3)))  # constant features: x @ w keeps x for dw
    w, b = Tensor(rng.normal(size=(3, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    gc.disable()
    try:
        for sweep in (False, True):
            with Tape() as tape:
                product = matmul(x, w)
                biased = product + b
                h = relu(biased)
                dead = weakref.ref(product.data), weakref.ref(biased.data)
                alive = weakref.ref(h.data)
                loss = sum_(h)
                del product, biased, h
                assert dead[0]() is None and dead[1]() is None
                assert alive() is not None  # relu's vjp reads its output
                if sweep:  # the last sweep drops each vjp as it passes it
                    grads = backward(loss, tape, {"w": w, "b": b})
                    assert alive() is None
                    with pytest.raises(ContractError):
                        backward(loss, tape, {"w": w, "b": b})
            assert alive() is None
    finally:
        gc.enable()
    assert np.array_equal(grads["b"].data, (x.data @ w.data > 0).sum(axis=0).astype(float))


def test_tape_takes_a_slice_of_a_recorded_tensor_once():
    w = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
    const = Tensor(np.arange(12.0).reshape(6, 2))
    assert take_rows(w, slice(0, 2)) is not take_rows(w, slice(0, 2))  # no tape records
    with Tape() as tape:
        top = take_rows(w, slice(0, 2))
        assert take_rows(w, slice(0, 2)) is top and take_rows(w, slice(2, 6)) is not top
        assert take_rows(w, np.array([0, 1])) is not take_rows(w, np.array([0, 1]))  # index arrays are not kept
        assert take_rows(const, slice(0, 2)) is not take_rows(const, slice(0, 2))  # nor constants
        assert len(tape) == 4
        loss = sum_(mul(top, top)) + sum_(take_rows(w, slice(0, 2)))
        grads = backward(loss, tape, {"w": w})
    assert not tape.slices
    assert np.array_equal(grads["w"].data, np.concatenate([2 * w.data[:2] + 1, np.zeros((4, 2))]))


def test_param_store_rejects_mixed_dtypes():
    with pytest.raises(ContractError):
        ParamStore({"a": np.ones(2, dtype=np.float32), "b": np.ones(2, dtype=np.float64)})
