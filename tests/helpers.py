"""Test-only models and counts that the library itself never needs."""

from dataclasses import dataclass

import numpy as np

from pointmeta.autodiff import ParamStore, Tensor
from pointmeta.model import PointNetConfig, layer_shapes
from pointmeta.sampler import BlockRef, BlockSample, Episode


@dataclass
class QuadraticTask:
    """1-parameter analytic task: one support term (w-a)^2 and one query term (w-b)^2."""

    a: float
    b: float

    @staticmethod
    def _square(params, target) -> Tensor:
        d = params["w"] - target
        return d * d

    @property
    def support_terms(self) -> list:
        return [lambda params: self._square(params, self.a)]

    @property
    def query_terms(self) -> list:
        return [lambda params: self._square(params, self.b)]


def num_params(config: PointNetConfig) -> int:
    """Parameter count from the layer shapes of ``config``."""
    return sum(int(np.prod(shape)) for _, shape in layer_shapes(config))


def num_values(params: ParamStore) -> int:
    """Number of scalars held by ``params``."""
    return sum(params[name].size for name in params)


def random_episode(points, n_support, n_query, num_classes, seed, dtype=np.float64) -> Episode:
    """An episode of random feature blocks, built without a dataset."""
    rng = np.random.default_rng(seed)

    def sample(i):
        features = rng.normal(size=(points, 9)).astype(dtype)
        labels = rng.integers(0, num_classes, size=points)
        return BlockSample(BlockRef("A", f"office_{i}", (i, 0), "office"), i, features, labels)

    return Episode([sample(i) for i in range(n_support)], [sample(n_support + i) for i in range(n_query)], ["office"])
