import pytest

from helpers import scalar_shuffle
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
