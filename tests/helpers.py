"""Test-only models and counts that the library itself never needs."""

from dataclasses import dataclass

import numpy as np

from pointmeta.autodiff import ParamStore, Tensor
from pointmeta.model import PointNetConfig, layer_shapes


@dataclass
class QuadraticTask:
    """1-parameter analytic task: support (w-a)^2, query (w-b)^2."""

    a: float
    b: float

    def support_loss(self, params) -> Tensor:
        d = params["w"] - self.a
        return d * d

    def query_loss(self, params) -> Tensor:
        d = params["w"] - self.b
        return d * d


def num_params(config: PointNetConfig) -> int:
    """Parameter count from the layer shapes of ``config``."""
    return sum(int(np.prod(shape)) for _, shape in layer_shapes(config))


def num_values(params: ParamStore) -> int:
    """Number of scalars held by ``params``."""
    return sum(params[name].size for name in params)
