from __future__ import annotations

import random

import numpy as np
import pytest

from _cyclo import ring_mul


def cyclic_convolution(u: list[int], v: list[int]) -> list[int]:
    e = len(u)
    out = [0] * e
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[(i + j) % e] += x * y
    return out


class TestRingMul:
    @pytest.mark.parametrize("e", [1, 2, 5, 12])
    def test_int64_path(self, e):
        rng = random.Random(e)
        u = [rng.randrange(-50, 50) for _ in range(e)]
        v = [rng.randrange(-50, 50) for _ in range(e)]
        out = ring_mul(np.array(u), np.array(v))
        assert out.dtype == np.int64
        assert out.tolist() == cyclic_convolution(u, v)

    @pytest.mark.parametrize("e", [2, 5, 12])
    def test_object_path_near_2_40(self, e):
        # products near 2^80 overflow int64, so the Python-int path must run
        rng = random.Random(e)
        u = [rng.randrange(2**40 - 1000, 2**40) * rng.choice((1, -1)) for _ in range(e)]
        v = [rng.randrange(2**40 - 1000, 2**40) for _ in range(e)]
        out = ring_mul(np.array(u), np.array(v))
        assert out.dtype == object
        assert out.tolist() == cyclic_convolution(u, v)
