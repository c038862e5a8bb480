import numpy as np
import pytest

from helpers import scalar_normal, scalar_shuffle
from tbptt.rng import SplitMix64


@pytest.mark.parametrize("seed", [0, 1, 0xB0, (1 << 64) - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 1980, 5000])
def test_shuffle_equals_the_scalar_fisher_yates(n, seed):
    # the same permutation, and the stream continues with the same draw
    vectorized, scalar = SplitMix64(seed), SplitMix64(seed)
    got, want = list(range(n)), list(range(n))
    vectorized.shuffle(got)
    scalar_shuffle(scalar, want)
    assert got == want
    assert vectorized.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1])
def test_normals_and_uniforms_equal_the_scalar_draws(seed):
    # interleaved calls of odd and even sizes and sigmas other than 1, on
    # both sides of the size from which normals takes one uint64 pass: a
    # spare carries across calls and takes the sigma of the call that uses
    # it, and the stream continues with the same draw
    vectorized, scalar = SplitMix64(seed), SplitMix64(seed)
    for n, sigma in [(3, 2.5), (0, 9.0), (1, 0.3), (4, 1.0), (1, -1.5), (2, 0.05), (7, 3.0),
                     (1, 1.0), (15, 0.5), (16, 1.0), (17, 2.0), (14, 1.0), (1980, 0.7)]:
        got = vectorized.normals(n, sigma)
        want = [scalar_normal(scalar, sigma) for _ in range(n)]
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()
        got = vectorized.uniforms(n % 5, -0.25, 4.0)
        want = [scalar.uniform(-0.25, 4.0) for _ in range(n % 5)]
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()
    assert vectorized._spare_normal == scalar._spare_normal
    assert vectorized.next_u64() == scalar.next_u64()
