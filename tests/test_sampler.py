import numpy as np
import pytest

from pointmeta.data import DEFAULT_CLASSES, Area, Room, SyntheticAreaSpec, generate_synthetic_area
from pointmeta.errors import CapacityError, ConfigError
from pointmeta.sampler import (
    EpisodeSpec,
    build_task_distribution,
    index_categories,
    replay_episode,
    sample_episode,
    write_episode_manifest,
)


def tiny_room(name, n=40, seed=0, label=0, span=2.0):
    rng = np.random.default_rng(seed)
    return Room(
        name=name,
        room_type=name.rpartition("_")[0],
        xyz=rng.uniform(0, span, size=(n, 3)),
        rgb=rng.integers(0, 256, size=(n, 3)),
        labels=np.full(n, label, dtype=np.int64),
    )


@pytest.fixture(scope="module")
def synth_area():
    spec = SyntheticAreaSpec(
        name="AreaT",
        rooms=(("office", 3), ("hallway", 2), ("storage", 2)),
        density=35,
    )
    return generate_synthetic_area(spec, seed=11)


def test_index_room_type_category_count():
    area = Area(
        name="A",
        rooms=[tiny_room("office_1", seed=1), tiny_room("office_2", seed=2), tiny_room("hallway_1", seed=3)],
        classes=DEFAULT_CLASSES,
    )
    index = index_categories(area, points_per_block=16)
    assert set(index.categories) == {"office", "hallway"}
    office_rooms = {ref.room for ref in index.categories["office"]}
    assert office_rooms == {"office_1", "office_2"}


def test_index_six_room_types_like_a_real_building():
    # an area with offices, conference rooms, hallways, a copy room, a pantry
    # and a WC indexes into exactly six non-empty categories
    rooms = (
        [tiny_room(f"office_{i}", seed=i) for i in range(1, 4)]
        + [tiny_room("conference_room_1", seed=10), tiny_room("hallway_1", seed=11), tiny_room("hallway_2", seed=12)]
        + [tiny_room("copy_room_1", seed=13), tiny_room("pantry_1", seed=14), tiny_room("wc_1", seed=15)]
    )
    area = Area(name="Area1", rooms=rooms, classes=DEFAULT_CLASSES)
    index = index_categories(area, points_per_block=16)
    assert set(index.categories) == {"office", "conference_room", "hallway", "copy_room", "pantry", "wc"}


def test_semantic_composition_mode(synth_area):
    index = index_categories(synth_area, mode="semantic_composition", points_per_block=32)
    assert set(index.categories) <= set(DEFAULT_CLASSES)
    assert len(index.categories) >= 2


def test_episode_shape_two_way_six_shot(synth_area):
    index = index_categories(synth_area, points_per_block=32)
    spec = EpisodeSpec(ways=2, shots=6, query_multiplier=1)
    episode = sample_episode(index, spec, np.random.default_rng(0))
    assert len(episode.support) == 12
    assert len(episode.query) == 12
    assert len(set(episode.categories)) == 2


def test_episode_forced_disjointness():
    area = Area(name="A", rooms=[tiny_room("office_1", n=30, span=1.8, seed=5)], classes=DEFAULT_CLASSES)
    index = index_categories(area, points_per_block=8)
    assert len(index.categories["office"]) >= 2
    spec = EpisodeSpec(ways=1, shots=1, query_multiplier=1)
    episode = sample_episode(index, spec, np.random.default_rng(1))
    assert episode.support[0].ref.identity != episode.query[0].ref.identity


def test_episode_balance_and_disjointness_bulk(synth_area):
    index = index_categories(synth_area, points_per_block=16)
    spec = EpisodeSpec(ways=2, shots=2, query_multiplier=2)
    for i in range(300):
        ep = sample_episode(index, spec, np.random.default_rng([7, i]))
        support_ids = {s.ref.identity for s in ep.support}
        query_ids = {q.ref.identity for q in ep.query}
        assert len(support_ids) == len(ep.support)
        assert len(query_ids) == len(ep.query)
        assert not (support_ids & query_ids)
        for cat in ep.categories:
            assert sum(s.category == cat for s in ep.support) == spec.shots
            assert sum(q.category == cat for q in ep.query) == spec.query_multiplier * spec.shots


def test_capacity_error_names_shortfall(synth_area):
    index = index_categories(synth_area, points_per_block=16)
    spec = EpisodeSpec(ways=6, shots=50)
    with pytest.raises(CapacityError, match="6 categories"):
        sample_episode(index, spec, np.random.default_rng(0))


def test_spec_validation():
    with pytest.raises(ConfigError):
        EpisodeSpec(ways=0, shots=1)
    with pytest.raises(ConfigError):
        EpisodeSpec(ways=1, shots=1, category_mode="nope")


def test_distribution_deterministic(synth_area):
    index = index_categories(synth_area, points_per_block=16)
    spec = EpisodeSpec(ways=2, shots=2)
    a = build_task_distribution(index, spec, count=5, seed=3)
    b = build_task_distribution(index, spec, count=5, seed=3)
    for ep_a, ep_b in zip(a, b):
        assert [s.ref for s in ep_a.support] == [s.ref for s in ep_b.support]
        assert [q.ref for q in ep_a.query] == [q.ref for q in ep_b.query]
        for sa, sb in zip(ep_a.support, ep_b.support):
            assert np.array_equal(sa.features, sb.features)


def test_distribution_empty_and_random_access(synth_area):
    index = index_categories(synth_area, points_per_block=16)
    spec = EpisodeSpec(ways=2, shots=2)
    empty = build_task_distribution(index, spec, count=0, seed=0)
    assert len(list(empty)) == 0
    dist = build_task_distribution(index, spec, count=10, seed=1)
    direct = dist[7]
    streamed = list(dist)[7]
    assert [s.ref for s in direct.support] == [s.ref for s in streamed.support]


def test_category_frequencies_roughly_uniform(synth_area):
    index = index_categories(synth_area, points_per_block=8)
    eligible = [c for c in sorted(index.categories) if len(index.categories[c]) >= 2]
    spec = EpisodeSpec(ways=1, shots=1)
    counts = {c: 0 for c in eligible}
    trials = 4000
    for i in range(trials):
        ep = sample_episode(index, spec, np.random.default_rng([99, i]))
        counts[ep.categories[0]] += 1
    p = 1.0 / len(eligible)
    sigma = np.sqrt(trials * p * (1 - p))
    for c, n in counts.items():
        assert abs(n - trials * p) <= 3 * sigma, (c, n)


def test_manifest_roundtrip(tmp_path, synth_area):
    import json

    index = index_categories(synth_area, points_per_block=16)
    spec = EpisodeSpec(ways=2, shots=2)
    dist = build_task_distribution(index, spec, count=3, seed=5)
    episodes = list(dist)
    path = tmp_path / "episodes.json"
    write_episode_manifest(episodes, spec, seed=5, path=path)
    manifest = json.loads(path.read_text())
    assert len(manifest["episodes"]) == 3
    replayed = replay_episode(index, manifest["episodes"][1])
    for a, b in zip(replayed.support, episodes[1].support):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
