"""Episodic N-way K-shot task construction over block datasets.

A "sample" is one room block, resampled to a fixed point count and
featurized.  Its category is its source room's type: a task asks the
network to adapt to a kind of environment.  An episode draws n categories,
then per category k support samples and t*k query samples, all without
replacement, so support and query never share a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Block, featurize_block, partition_blocks, resample_block
from .errors import CapacityError, ConfigError


@dataclass(frozen=True)
class EpisodeSpec:
    ways: int
    shots: int
    query_multiplier: int = 1

    def __post_init__(self):
        # each field named as a run config and the CLI spell it: `queries`, not `query_multiplier`
        for name, value in (("ways", self.ways), ("shots", self.shots), ("queries", self.query_multiplier)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")


@dataclass
class BlockSample:
    """One materialized sample: the indexed block it was drawn from, resampled and featurized."""

    block: Block
    features: np.ndarray  # [P, 9]
    labels: np.ndarray  # [P]


@dataclass
class Episode:
    support: list[BlockSample]
    query: list[BlockSample]
    categories: list[str]


class CategoryIndex:
    """Room type -> the blocks of its rooms, in area, room and grid order."""

    def __init__(self, areas, points_per_block: int = 1024):
        self.points_per_block = points_per_block
        self.categories: dict[str, list[Block]] = {}
        for area in areas:
            for room in area.rooms:
                self.categories.setdefault(room.room_type, []).extend(partition_blocks(room))
        if not self.categories:
            raise CapacityError("dataset produced no candidate blocks in any category")

    def materialize(self, block: Block, resample_seed: int) -> BlockSample:
        resampled = resample_block(block, self.points_per_block, np.random.default_rng(resample_seed))
        return BlockSample(block=block, features=featurize_block(resampled), labels=resampled.labels)


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
        blocks = index.categories[category]
        order = rng.permutation(len(blocks))
        picks = [blocks[i] for i in order[:needed]]
        seeds = rng.integers(0, 2**31 - 1, size=needed)
        for block, seed in zip(picks[: spec.shots], seeds[: spec.shots]):
            support.append(index.materialize(block, int(seed)))
        for block, seed in zip(picks[spec.shots :], seeds[spec.shots :]):
            query.append(index.materialize(block, int(seed)))
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
