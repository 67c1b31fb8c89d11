"""The sampling generator against numpy's Generator(PCG64(seed)), bit for bit."""
import math

import numpy as np
import pytest

from hypmetrics.errors import BadParameter
from hypmetrics.sampling import _PCG64, sample_annular, sample_log_annular

# one to four 32-bit words, then five and more (SeedSequence's extra mixing rounds)
LARGE_SEEDS = [2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3,
               2**128 + 5, 2**160 - 1, 2**200 + 12345, 3**150]
DRAWS = [(0.0, 1.0, 4), (0.1, 0.75, 3), (math.log(1e-4), math.log(0.999), 2),
         (0.0, 2.0 * math.pi, 5), (-3.0, 2.0, 1), (0.5, 0.5, 2), (0.0, 1.0, 0)]


def _reference(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seeds", [range(1000), LARGE_SEEDS], ids=["0-999", "large"])
def test_uniform_is_numpys_bit_for_bit(seeds):
    for seed in seeds:
        ours, ref = _PCG64(seed), _reference(seed)
        for low, high, n in DRAWS:  # one stream, continued across the draws
            got, want = ours.uniform(low, high, n), ref.uniform(low, high, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, low)


def test_samplers_equal_their_numpy_built_samples():
    for seed in range(1000):
        ref = _reference(seed)
        radii = ref.uniform(0.3, 0.75, 10)
        want = radii * np.exp(1j * ref.uniform(0.0, 2.0 * math.pi, 10))
        assert sample_annular(seed, 10, 0.3, 0.75).tobytes() == want.tobytes(), seed
        ref = _reference(seed)
        radii = np.exp(ref.uniform(math.log(1e-3), math.log(0.8), 10))
        want = radii * np.exp(1j * ref.uniform(0.0, 2.0 * math.pi, 10))
        assert sample_log_annular(seed, 10, 1e-3, 0.8).tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("seed", [-1, -9, -(2**64)])
def test_negative_seed_is_a_bad_parameter(seed):
    for draw in (lambda: _PCG64(seed), lambda: sample_annular(seed, 3, 0.1, 0.5),
                 lambda: sample_log_annular(seed, 3, 1e-3, 0.5)):
        with pytest.raises(BadParameter, match=f"seed must be a non-negative integer, "
                                               f"got {seed}$"):
            draw()


@pytest.mark.parametrize("low, high", [(1.0, 0.5), (0.0, math.inf), (math.nan, 1.0),
                                       (-1e308, 1e308)])
def test_bounds_numpy_refuses_are_a_bad_parameter(low, high):
    with pytest.raises((ValueError, OverflowError)):
        _reference(0).uniform(low, high, 1)
    with pytest.raises(BadParameter, match="need finite low <= high"):
        _PCG64(0).uniform(low, high, 1)
