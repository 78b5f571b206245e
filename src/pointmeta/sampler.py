"""Episodic N-way K-shot task construction over block datasets.

A "sample" is one room block, resampled to a fixed point count and
featurized.  Its category is its source room's type: a task asks the
network to adapt to a kind of environment.  An episode draws n categories,
then per category k support samples and t*k query samples, all without
replacement, so support and query never share a block.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import Area, Block, featurize_block, partition_blocks, resample_block, write_file
from .errors import CapacityError, ConfigError


@dataclass(frozen=True)
class EpisodeSpec:
    ways: int
    shots: int
    query_multiplier: int = 1

    def __post_init__(self):
        if self.ways < 1 or self.shots < 1 or self.query_multiplier < 1:
            raise ConfigError(f"ways, shots and query_multiplier must be >= 1, got {self}")


@dataclass(frozen=True)
class BlockRef:
    area: str
    room: str
    grid: tuple[int, int]
    category: str

    @property
    def identity(self) -> tuple:
        return (self.area, self.room, self.grid)


@dataclass
class BlockSample:
    """One materialized sample: features plus where it came from."""

    ref: BlockRef
    resample_seed: int
    features: np.ndarray  # [P, 9]
    labels: np.ndarray  # [P]

    @property
    def category(self) -> str:
        return self.ref.category


@dataclass
class Episode:
    support: list[BlockSample]
    query: list[BlockSample]
    categories: list[str]


class CategoryIndex:
    """Room type -> candidate blocks, with everything needed to materialize them."""

    def __init__(self, areas, points_per_block: int = 1024):
        if isinstance(areas, Area):
            areas = [areas]
        self.points_per_block = points_per_block
        self._blocks: dict[tuple, Block] = {}
        self.categories: dict[str, list[BlockRef]] = {}
        for area in areas:
            for room in area.rooms:
                for block in partition_blocks(room):
                    ref = BlockRef(area=area.name, room=room.name, grid=block.grid, category=room.room_type)
                    self._blocks[ref.identity] = block
                    self.categories.setdefault(room.room_type, []).append(ref)
        if not self.categories:
            raise CapacityError("dataset produced no candidate blocks in any category")

    def materialize(self, ref: BlockRef, resample_seed: int) -> BlockSample:
        block = self._blocks[ref.identity]
        resampled = resample_block(block, self.points_per_block, np.random.default_rng(resample_seed))
        features = featurize_block(resampled)
        return BlockSample(ref=ref, resample_seed=resample_seed, features=features, labels=resampled.labels)


def index_categories(areas, points_per_block: int = 1024) -> CategoryIndex:
    return CategoryIndex(areas, points_per_block=points_per_block)


def sample_episode(index: CategoryIndex, spec: EpisodeSpec, rng: np.random.Generator) -> Episode:
    """Draw one episode; deterministic for a given generator state.

    Categories with fewer than k + t*k blocks are excluded from the draw
    rather than padded; running out of eligible categories is an error.
    """
    needed = spec.shots + spec.query_multiplier * spec.shots
    names = sorted(index.categories)
    eligible = [c for c in names if len(index.categories[c]) >= needed]
    if len(eligible) < spec.ways:
        short = {c: len(index.categories[c]) for c in names if c not in eligible}
        raise CapacityError(
            f"need {spec.ways} categories with >= {needed} samples, only {len(eligible)} qualify"
            f" (too small: {short})"
        )
    chosen = [eligible[i] for i in rng.choice(len(eligible), size=spec.ways, replace=False)]

    support, query = [], []
    for category in chosen:
        refs = index.categories[category]
        order = rng.permutation(len(refs))
        picks = [refs[i] for i in order[:needed]]
        seeds = rng.integers(0, 2**31 - 1, size=needed)
        for ref, seed in zip(picks[: spec.shots], seeds[: spec.shots]):
            support.append(index.materialize(ref, int(seed)))
        for ref, seed in zip(picks[spec.shots :], seeds[spec.shots :]):
            query.append(index.materialize(ref, int(seed)))
    return Episode(support=support, query=query, categories=chosen)


@dataclass
class TaskDistribution:
    """A reproducible sequence of episodes; episode i only depends on (seed, i)."""

    index: CategoryIndex
    spec: EpisodeSpec
    count: int
    seed: int

    def __len__(self):
        return self.count

    def __getitem__(self, i: int) -> Episode:
        if not 0 <= i < self.count:
            raise IndexError(i)
        return sample_episode(self.index, self.spec, np.random.default_rng([self.seed, i]))


def build_task_distribution(index: CategoryIndex, spec: EpisodeSpec, count: int, seed: int) -> TaskDistribution:
    if count < 0:
        raise ConfigError(f"episode count must be >= 0, got {count}")
    return TaskDistribution(index=index, spec=spec, count=count, seed=seed)


def write_episode_manifest(episodes, spec: EpisodeSpec, seed: int, path) -> None:
    """Record (room, block, resample-seed) identities so a run can be replayed."""

    def entry(sample: BlockSample):
        return {
            "area": sample.ref.area,
            "room": sample.ref.room,
            "block": list(sample.ref.grid),
            "category": sample.ref.category,
            "resample_seed": sample.resample_seed,
        }

    payload = {
        "seed": seed,
        "spec": asdict(spec),
        "episodes": [
            {
                "index": i,
                "categories": ep.categories,
                "support": [entry(s) for s in ep.support],
                "query": [entry(s) for s in ep.query],
            }
            for i, ep in enumerate(episodes)
        ],
    }
    write_file(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def replay_episode(index: CategoryIndex, manifest_entry: dict) -> Episode:
    """Rebuild an episode from its manifest record."""

    def materialize(entry):
        ref = BlockRef(
            area=entry["area"], room=entry["room"], grid=tuple(entry["block"]), category=entry["category"]
        )
        return index.materialize(ref, entry["resample_seed"])

    return Episode(
        support=[materialize(e) for e in manifest_entry["support"]],
        query=[materialize(e) for e in manifest_entry["query"]],
        categories=list(manifest_entry["categories"]),
    )
