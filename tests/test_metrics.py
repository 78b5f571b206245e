import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmeta.errors import ValidationError
from pointmeta.metrics import accumulate, compute_metrics, metrics_report


def zeros(m):
    return np.zeros((m, m), dtype=np.int64)


def test_accumulate_diagonal():
    counts = accumulate(zeros(2), [0, 0, 1], [0, 0, 1])
    assert np.array_equal(counts, [[2, 0], [0, 1]]) and counts.dtype == np.int64


def test_accumulate_empty_is_identity():
    base = zeros(3)
    counts = accumulate(base, [], [])
    assert counts.sum() == 0 and counts is not base


def test_accumulate_is_functional_and_additive():
    rng = np.random.default_rng(0)
    a_pred, a_truth = rng.integers(0, 4, 50), rng.integers(0, 4, 50)
    b_pred, b_truth = rng.integers(0, 4, 30), rng.integers(0, 4, 30)
    base = zeros(4)
    joined = accumulate(base, np.concatenate([a_pred, b_pred]), np.concatenate([a_truth, b_truth]))
    stepwise = accumulate(accumulate(base, a_pred, a_truth), b_pred, b_truth)
    assert np.array_equal(joined, stepwise)
    assert np.array_equal(joined, accumulate(base, a_pred, a_truth) + accumulate(base, b_pred, b_truth))
    assert base.sum() == 0  # unchanged


def test_accumulate_label_out_of_range():
    with pytest.raises(ValidationError):
        accumulate(zeros(2), [0, 2], [0, 1])


def test_perfect_prediction():
    counts = accumulate(zeros(2), [0, 1, 1], [0, 1, 1])
    m = compute_metrics(counts)
    assert m.oacc == m.macc == m.miou == 1.0
    assert m.excluded == ()


def test_hand_worked_confusion_matrix():
    # truth class0: 10 points, 8 right and 2 predicted class1;
    # truth class1: 5 points, 4 right and 1 predicted class0
    pred = [0] * 8 + [1] * 2 + [1] * 4 + [0] * 1
    truth = [0] * 10 + [1] * 5
    m = compute_metrics(accumulate(zeros(2), pred, truth))
    assert m.oacc == pytest.approx(12 / 15)
    assert m.macc == pytest.approx((8 / 10 + 4 / 5) / 2)
    assert m.miou == pytest.approx((8 / 11 + 4 / 7) / 2)


def test_absent_class_excluded_and_listed():
    counts = accumulate(zeros(3), [0, 1], [0, 1])
    m = compute_metrics(counts)
    assert m.excluded == (2,)
    assert set(m.class_acc) == {0, 1}


def test_predicted_only_class_counts_zero_accuracy():
    # class 1 never appears in truth but is predicted once
    counts = accumulate(zeros(2), [1, 0], [0, 0])
    m = compute_metrics(counts)
    assert m.class_acc[1] == 0.0
    assert m.class_iou[1] == 0.0
    assert m.macc == pytest.approx(0.25)


def test_empty_matrix_error():
    with pytest.raises(ValidationError):
        compute_metrics(zeros(3))


def test_metrics_invariant_under_class_relabeling():
    rng = np.random.default_rng(2)
    pred, truth = rng.integers(0, 4, 200), rng.integers(0, 4, 200)
    perm = rng.permutation(4)
    base = compute_metrics(accumulate(zeros(4), pred, truth))
    relabeled = compute_metrics(accumulate(zeros(4), perm[pred], perm[truth]))
    assert relabeled.oacc == pytest.approx(base.oacc)
    assert relabeled.macc == pytest.approx(base.macc)
    assert relabeled.miou == pytest.approx(base.miou)


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_metrics_against_pointwise_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 14))
    p = int(rng.integers(1, 501))
    pred = rng.integers(0, m, p)
    truth = rng.integers(0, m, p)
    got = compute_metrics(accumulate(zeros(m), pred, truth))

    # independent counting oracle, point by point
    n = [0] * m
    c = [0] * m
    w = [0] * m
    for pv, tv in zip(pred.tolist(), truth.tolist()):
        n[tv] += 1
        if pv == tv:
            c[tv] += 1
        else:
            w[pv] += 1
    oacc = sum(c) / p
    present = [i for i in range(m) if n[i] + w[i] > 0]
    macc = sum((c[i] / n[i] if n[i] else 0.0) for i in present) / len(present)
    miou = sum(c[i] / (n[i] + w[i]) for i in present) / len(present)

    assert got.oacc == oacc
    assert abs(got.macc - macc) <= 1e-12
    assert abs(got.miou - miou) <= 1e-12
    assert got.miou <= got.macc
    assert 0.0 <= got.oacc <= 1.0 and 0.0 <= got.macc <= 1.0


def test_report_csv_shape():
    counts = accumulate(zeros(3), [0, 1, 1], [0, 1, 2])
    m = compute_metrics(counts)
    rows = metrics_report(counts, m, class_names=("floor", "wall", "chair"))
    assert rows[0] == ["class", "n", "c", "w", "acc", "iou", "oacc", "macc", "miou"]
    assert [row[:4] for row in rows[1:]] == [["floor", 1, 1, 0], ["wall", 1, 1, 1], ["chair", 1, 0, 0], ["overall", 3, 2, 1]]
    assert rows[3][4:6] == ["0.0", "0.0"] and rows[-1][6:] == [repr(m.oacc), repr(m.macc), repr(m.miou)]
    assert all(len(row) == 9 for row in rows)
