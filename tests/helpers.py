"""Test-only models and counts that the library itself never needs."""

from dataclasses import dataclass

import numpy as np

from pointmeta.autodiff import ParamStore, Tensor
from pointmeta.data import _CHUNK_ROWS
from pointmeta.model import PointNetConfig, layer_shapes
from pointmeta.sampler import BlockSample, Episode


# the most memory one chunk of room rows takes in flight, in bytes: the formatter's digit slots take about 300 a
# row and the parser's line text, line strs and int64 table about 190, so 512 a row leaves headroom
CHUNK_IN_FLIGHT = 512 * _CHUNK_ROWS


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
    """An episode of random feature blocks, built without a dataset, so no sample has a source block."""
    rng = np.random.default_rng(seed)

    def sample(i):
        features = rng.normal(size=(points, 9)).astype(dtype)
        labels = rng.integers(0, num_classes, size=points)
        return BlockSample(None, features, labels)

    return Episode([sample(i) for i in range(n_support)], [sample(n_support + i) for i in range(n_query)], ["office"])
