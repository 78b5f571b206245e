import numpy as np
import pytest

from pointmeta.data import DEFAULT_CLASSES, Area, Room, SyntheticAreaSpec, generate_synthetic_area, partition_blocks
from pointmeta.errors import CapacityError, ConfigError
from pointmeta.sampler import EpisodeSpec, build_task_distribution, index_categories, sample_episode


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
    index = index_categories([area], points_per_block=16)
    assert set(index.categories) == {"office", "hallway"}
    # a category holds its rooms' blocks in room and grid order
    for category, rooms in (("office", area.rooms[:2]), ("hallway", area.rooms[2:])):
        expected = [block for room in rooms for block in partition_blocks(room)]
        held = index.categories[category]
        assert [b.grid for b in held] == [b.grid for b in expected]
        assert all(np.array_equal(b.xyz, e.xyz) for b, e in zip(held, expected))


def test_index_six_room_types_like_a_real_building():
    # an area with offices, conference rooms, hallways, a copy room, a pantry
    # and a WC indexes into exactly six non-empty categories
    rooms = (
        [tiny_room(f"office_{i}", seed=i) for i in range(1, 4)]
        + [tiny_room("conference_room_1", seed=10), tiny_room("hallway_1", seed=11), tiny_room("hallway_2", seed=12)]
        + [tiny_room("copy_room_1", seed=13), tiny_room("pantry_1", seed=14), tiny_room("wc_1", seed=15)]
    )
    area = Area(name="Area1", rooms=rooms, classes=DEFAULT_CLASSES)
    index = index_categories([area], points_per_block=16)
    assert set(index.categories) == {"office", "conference_room", "hallway", "copy_room", "pantry", "wc"}


def test_episode_shape_two_way_six_shot(synth_area):
    index = index_categories([synth_area], points_per_block=32)
    spec = EpisodeSpec(ways=2, shots=6, query_multiplier=1)
    episode = sample_episode(index, spec, np.random.default_rng(0))
    assert len(episode.support) == 12
    assert len(episode.query) == 12
    assert len(set(episode.categories)) == 2


def test_episode_forced_disjointness():
    area = Area(name="A", rooms=[tiny_room("office_1", n=30, span=1.8, seed=5)], classes=DEFAULT_CLASSES)
    index = index_categories([area], points_per_block=8)
    assert len(index.categories["office"]) >= 2
    spec = EpisodeSpec(ways=1, shots=1, query_multiplier=1)
    episode = sample_episode(index, spec, np.random.default_rng(1))
    assert episode.support[0].block is not episode.query[0].block


def test_episode_balance_and_disjointness_bulk(synth_area):
    index = index_categories([synth_area], points_per_block=16)
    spec = EpisodeSpec(ways=2, shots=2, query_multiplier=2)
    for i in range(300):
        ep = sample_episode(index, spec, np.random.default_rng([7, i]))
        # the index holds every block, so a block's id() names it for the whole test
        support_ids = {id(s.block) for s in ep.support}
        query_ids = {id(q.block) for q in ep.query}
        assert len(support_ids) == len(ep.support)
        assert len(query_ids) == len(ep.query)
        assert not (support_ids & query_ids)
        for cat in ep.categories:
            members = {id(block) for block in index.categories[cat]}
            assert sum(id(s.block) in members for s in ep.support) == spec.shots
            assert sum(id(q.block) in members for q in ep.query) == spec.query_multiplier * spec.shots


def test_capacity_error_names_shortfall(synth_area):
    index = index_categories([synth_area], points_per_block=16)
    spec = EpisodeSpec(ways=6, shots=50)
    with pytest.raises(CapacityError, match="6 categories"):
        sample_episode(index, spec, np.random.default_rng(0))


def test_spec_validation():
    # each field is checked on its own and named as a run config and the CLI spell it
    for fields, name in (((0, 1, 1), "ways"), ((1, 0, 1), "shots"), ((1, 1, 0), "queries")):
        with pytest.raises(ConfigError, match=f"^{name} must be >= 1, got 0$"):
            EpisodeSpec(*fields)


def test_distribution_deterministic(synth_area):
    index = index_categories([synth_area], points_per_block=16)
    spec = EpisodeSpec(ways=2, shots=2)
    a = build_task_distribution(index, spec, count=5, seed=3)
    b = build_task_distribution(index, spec, count=5, seed=3)
    for ep_a, ep_b in zip(a, b):
        assert [id(s.block) for s in ep_a.support] == [id(s.block) for s in ep_b.support]
        assert [id(q.block) for q in ep_a.query] == [id(q.block) for q in ep_b.query]
        for sa, sb in zip(ep_a.support, ep_b.support):
            assert np.array_equal(sa.features, sb.features)


def test_distribution_empty_and_random_access(synth_area):
    index = index_categories([synth_area], points_per_block=16)
    spec = EpisodeSpec(ways=2, shots=2)
    empty = build_task_distribution(index, spec, count=0, seed=0)
    assert len(list(empty)) == 0
    dist = build_task_distribution(index, spec, count=10, seed=1)
    direct = dist[7]
    streamed = list(dist)[7]
    assert [id(s.block) for s in direct.support] == [id(s.block) for s in streamed.support]
    # episode i is rebuilt bit for bit from (index, spec, seed, i): no episode record is needed to replay it
    for a, b in zip(direct.support + direct.query, streamed.support + streamed.query):
        assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)


def test_category_frequencies_roughly_uniform(synth_area):
    index = index_categories([synth_area], points_per_block=8)
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

