"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive trend and transfer checks (criteria 6 and 7) run real
meta-training on a fixed synthetic 3-area dataset; together they stay well
inside their budgets on a desk-class CPU.
"""

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import QuadraticTask
from pointmeta.autodiff import ParamStore, Tape, backward, cross_entropy, finite_diff_gradient, grad_array
from pointmeta.cli import main
from pointmeta.data import SyntheticAreaSpec, generate_synthetic_area
from pointmeta.metrics import accumulate, compute_metrics
from pointmeta.model import PointNetConfig, forward, init_params
from pointmeta.sampler import EpisodeSpec, build_task_distribution, index_categories, sample_episode
from pointmeta.trainer import MetaConfig, adapt_and_eval, meta_gradient, pretrain

REPO_ROOT = Path(__file__).resolve().parent.parent

# fixed synthetic dataset shared by the sampler/trend/transfer criteria
FIXTURE_ROOMS = (
    ("office", 3),
    ("hallway", 2),
    ("conference_room", 2),
    ("storage", 3),
    ("pantry", 3),
    ("lounge", 2),
)
FIXTURE_SEEDS = {"AreaA": 101, "AreaB": 102, "AreaC": 103}
POINTS_PER_BLOCK = 32


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def fixture_areas():
    return {
        name: generate_synthetic_area(
            SyntheticAreaSpec(name=name, rooms=FIXTURE_ROOMS, density=70), seed=seed
        )
        for name, seed in FIXTURE_SEEDS.items()
    }


@pytest.fixture(scope="module")
def fixture_model():
    return PointNetConfig(num_classes=6, points_per_block=POINTS_PER_BLOCK)


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness"):
        config = PointNetConfig(
            num_classes=3, mlp1_widths=(8, 8), mlp2_widths=(8, 16, 32), seg_head_widths=(16, 8), points_per_block=16
        )
        params = init_params(config, seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        block = rng.normal(size=(16, 9))
        labels = rng.integers(0, 3, size=16)

        def loss_of(store):
            with Tape():
                return cross_entropy(forward(config, store.tensors(), block), labels).item()

        fd = finite_diff_gradient(loss_of, params, eps=1e-5)
        with Tape() as tape:
            tensors = params.tensors()
            grads = backward(cross_entropy(forward(config, tensors, block), labels), tape, tensors)

        names = sorted(params.keys())
        coords = rng.integers(0, 10**9, size=100)
        for raw in coords:
            name = names[int(raw) % len(names)]
            flat = int(raw) % params[name].size
            ad = float(grad_array(grads[name]).ravel()[flat])
            ref = float(fd[name].ravel()[flat])
            # relative error with the denominator floored at 1e-3: below that
            # magnitude the central-difference oracle's own rounding noise
            # (about 1e-11 absolute at eps=1e-5) is the limiting factor, so
            # tiny coordinates are effectively held to 1e-10 absolute
            rel = abs(ad - ref) / max(abs(ad), abs(ref), 1e-3)
            assert rel <= 1e-7, (name, flat, ad, ref, rel)


def test_criterion_2_analytic_maml_oracle():
    with criterion(2, "analytic meta-gradient oracle"):
        rng = np.random.default_rng(2)
        cases = [(1.0, 2.0, 0.0, 0.25)] + [
            (float(a), float(b), float(w0), float(rng.uniform(0.01, 0.45)))
            for a, b, w0 in rng.normal(size=(20, 3)) * 2
        ]
        for a, b, w0, beta in cases:
            theta = ParamStore({"w": np.array(w0, dtype=np.float64)})
            phi = w0 - beta * 2 * (w0 - a)
            expected = {
                "first_order": 2 * (phi - b),
                "second_order": (1 - 2 * beta) * 2 * (phi - b),
            }
            for mode, want in expected.items():
                config = MetaConfig(alpha=0.1, beta=beta, gradient_mode=mode)
                got = float(meta_gradient(theta, [QuadraticTask(a, b)], config)[0]["w"])
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9), (mode, a, b, w0, beta)


def test_criterion_3_metrics_oracle():
    with criterion(3, "metrics vs counting oracle"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = int(rng.integers(2, 14))
            p = int(rng.integers(1, 501))
            pred = rng.integers(0, m, p)
            truth = rng.integers(0, m, p)
            got = compute_metrics(accumulate(np.zeros((m, m), dtype=np.int64), pred, truth))

            n = [0] * m
            c = [0] * m
            w = [0] * m
            for pv, tv in zip(pred.tolist(), truth.tolist()):
                n[tv] += 1
                if pv == tv:
                    c[tv] += 1
                else:
                    w[pv] += 1
            present = [i for i in range(m) if n[i] + w[i] > 0]
            oacc = sum(c) / p
            macc = sum((c[i] / n[i] if n[i] else 0.0) for i in present) / len(present)
            miou = sum(c[i] / (n[i] + w[i]) for i in present) / len(present)

            assert got.oacc == oacc
            assert abs(got.macc - macc) <= 1e-12
            assert abs(got.miou - miou) <= 1e-12
            assert got.miou <= got.macc


def test_criterion_4_sampler_properties(fixture_areas):
    with criterion(4, "sampler properties"):
        index = index_categories(list(fixture_areas.values()), points_per_block=POINTS_PER_BLOCK)
        specs = [
            EpisodeSpec(ways=n, shots=k, query_multiplier=t)
            for n in (1, 2, 6)
            for k in (1, 2, 6)
            for t in (1, 2)
        ]
        episodes_per_spec = 1000 // len(specs) + 1
        total = 0
        for spec_i, spec in enumerate(specs):
            for i in range(episodes_per_spec):
                ep = sample_episode(index, spec, np.random.default_rng([spec_i, i]))
                total += 1
                assert len(ep.support) == spec.ways * spec.shots
                assert len(ep.query) == spec.query_multiplier * spec.ways * spec.shots
                assert len(set(ep.categories)) == spec.ways
                support_ids = {s.ref.identity for s in ep.support}
                query_ids = {q.ref.identity for q in ep.query}
                assert len(support_ids) == len(ep.support)
                assert len(query_ids) == len(ep.query)
                assert not (support_ids & query_ids)
                for cat in ep.categories:
                    assert sum(s.category == cat for s in ep.support) == spec.shots
                    assert sum(q.category == cat for q in ep.query) == spec.query_multiplier * spec.shots
                if i < 3:  # seed determinism spot-check per spec
                    again = sample_episode(index, spec, np.random.default_rng([spec_i, i]))
                    assert [s.ref for s in again.support] == [s.ref for s in ep.support]
                    assert [q.ref for q in again.query] == [q.ref for q in ep.query]
                    assert all(
                        np.array_equal(x.features, y.features) for x, y in zip(again.support, ep.support)
                    )
        assert total >= 1000


def test_criterion_5_permutation_equivariance(fixture_model):
    with criterion(5, "permutation equivariance"):
        params = init_params(fixture_model, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = int(rng.integers(2, 64))
            block = rng.normal(size=(p, 9)).astype(np.float32)
            perm = rng.permutation(p)
            out, pooled = forward(fixture_model, params, block, return_pooled=True)
            out_p, pooled_p = forward(fixture_model, params, block[perm], return_pooled=True)
            assert np.array_equal(out.data[perm], out_p.data)
            assert np.array_equal(pooled.data, pooled_p.data)


@pytest.mark.slow
def test_criterion_6_learning_rate_trend(fixture_areas, fixture_model):
    with criterion(6, "learning-rate trend"):
        index = index_categories(list(fixture_areas.values()), points_per_block=POINTS_PER_BLOCK)
        spec = EpisodeSpec(ways=2, shots=6)
        wins = 0
        for seed in range(5):
            dist = build_task_distribution(index, spec, count=500, seed=seed)
            finals = {}
            for beta in (1e-2, 1e-3, 1e-4):
                config = MetaConfig(alpha=1e-3, beta=beta, inner_steps=1, epochs=1, steps_per_epoch=500)
                state = pretrain(dist, config, fixture_model, init_seed=seed)
                finals[beta] = float(np.mean(state.losses[-50:]))
            best = min(finals, key=finals.get)
            print(f"  seed {seed}: " + "  ".join(f"beta={b:g}: {v:.4f}" for b, v in finals.items()))
            wins += best == 1e-3
        assert wins >= 4, f"beta=1e-3 best in only {wins}/5 seeds"


@pytest.mark.slow
def test_criterion_7_meta_learning_efficacy(fixture_areas, fixture_model):
    with criterion(7, "meta-learning transfer efficacy"):
        spec = EpisodeSpec(ways=2, shots=6)
        train_index = index_categories(
            [fixture_areas["AreaA"], fixture_areas["AreaB"]], points_per_block=POINTS_PER_BLOCK
        )
        dist = build_task_distribution(train_index, spec, count=800, seed=0)
        config = MetaConfig(alpha=1e-3, beta=1e-3, inner_steps=1, epochs=1, steps_per_epoch=800)
        state = pretrain(dist, config, fixture_model, init_seed=0)

        meta = adapt_and_eval(
            state.theta, fixture_model, fixture_areas["AreaC"], spec, episodes=20,
            rng=np.random.default_rng(1000), beta=1e-3, inner_steps=5,
        )
        random_init = adapt_and_eval(
            init_params(fixture_model, seed=777), fixture_model, fixture_areas["AreaC"], spec, episodes=20,
            rng=np.random.default_rng(1000), beta=1e-3, inner_steps=5,
        )
        chance = 1.0 / fixture_model.num_classes
        print(
            f"  meta oAcc {meta.mean_oacc:.3f} vs random-init {random_init.mean_oacc:.3f}"
            f" (chance {chance:.3f})"
        )
        assert meta.mean_oacc - random_init.mean_oacc >= 0.10
        assert meta.mean_oacc - chance >= 0.20


def test_criterion_8_fullscale_targets_recorded_not_asserted():
    with criterion(8, "full-scale numbers recorded as optional targets"):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        # the published large-scale transfer numbers are documented as
        # optional long-run targets, never asserted by this suite
        for target in ("81.4", "88.0", "87.8"):
            assert target in readme
        assert "long-run" in readme.lower()
        assert "±5" in readme or "+-5" in readme or "+/-5" in readme


def test_criterion_9_determinism_end_to_end(tmp_path):
    with criterion(9, "bit-identical reruns"):
        spec = {
            "density": 40,
            "areas": [
                {"name": "AreaA", "rooms": {"office": 2, "hallway": 2}},
                {"name": "AreaB", "rooms": {"office": 2, "hallway": 2}},
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))

        def run(tag):
            root = tmp_path / tag
            data = root / "data"
            assert main(["synth", "--spec", str(spec_path), "--seed", "3", "--out", str(data)]) == 0
            cfg = {
                "data": {"root": str(data), "points_per_block": 32},
                "episode": {"ways": 2, "shots": 2},
                "model": {"mlp1_widths": [8, 8], "mlp2_widths": [8, 16], "seg_head_widths": [8]},
                "meta": {"alpha": 1e-3, "beta": 1e-3, "epochs": 1, "steps_per_epoch": 4},
                "seeds": {"init": 0, "tasks": 1},
            }
            cfg_path = root / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            train = root / "train"
            assert main(["pretrain", "--config", str(cfg_path), "--out", str(train)]) == 0
            evaldir = root / "eval"
            assert (
                main(
                    [
                        "adapt-eval", "--checkpoint", str(train / "ckpt_epoch1"),
                        "--data", str(data), "--areas", "AreaB",
                        "--ways", "2", "--shots", "2", "--episodes", "2",
                        "--seed", "5", "--out", str(evaldir),
                    ]
                )
                == 0
            )
            room = next((data / "AreaB").glob("office_*.txt"))
            ply = root / "ply"
            assert (
                main(
                    [
                        "export-ply", "--checkpoint", str(train / "ckpt_epoch1"),
                        "--room", str(room), "--vocab", str(data / "vocab.txt"),
                        "--seed", "2", "--out", str(ply),
                    ]
                )
                == 0
            )
            return {
                str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name not in ("manifest.json", "cfg.json")
            }

        first = run("run1")
        second = run("run2")
        assert first == second
        assert any(k.endswith(".ply") for k in first)
        assert any(k.endswith("loss.csv") for k in first)
