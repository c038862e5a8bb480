import numpy as np
import pytest

from tbptt.linalg import DimensionError, spectral_norm


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0, rel=1e-10)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([0.5, -0.2])) == pytest.approx(0.5, rel=1e-10)


def test_spectral_norm_nilpotent():
    # singular values of [[0,2],[0,0]] are {2, 0}
    assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, rel=1e-10)


def test_spectral_norm_top_direction_orthogonal_to_ones():
    # gram eigvectors are [1,-1] (eigenvalue 4) and [1,1] (eigenvalue 1): the
    # all-ones start alone would converge to the wrong eigenpair
    c = np.cos(np.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    a = np.diag([2.0, 1.0]) @ rot.T
    assert spectral_norm(a) == pytest.approx(2.0, rel=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_dominates_rayleigh_quotients():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.normal(size=(4, 3))
        sigma = spectral_norm(a)
        v = rng.normal(size=3)
        assert sigma * np.linalg.norm(v) >= np.linalg.norm(a @ v) - 1e-9


def test_spectral_norm_absolute_homogeneity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    base = spectral_norm(a)
    for c in (-2.5, 0.3, 7.0):
        assert spectral_norm(c * a) == pytest.approx(abs(c) * base, rel=1e-10)


def test_spectral_norm_empty_rejected():
    with pytest.raises(DimensionError):
        spectral_norm(np.zeros((0, 2)))


def test_spectral_norm_rejects_non_matrix_shape():
    with pytest.raises(DimensionError, match=r"\(3,\)"):
        spectral_norm(np.ones(3))


def test_spectral_norm_near_degenerate_top_pair():
    # power iteration stalls on a 1e-4 gap; the SVD does not
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    r, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    a = q @ np.diag([1.0, 1.0 - 1e-4, 0.5, 0.25, 0.125, 0.0625]) @ r
    assert abs(spectral_norm(a) - 1.0) <= 1e-12


@pytest.mark.parametrize("shape", [(4, 4), (3, 6), (1, 5), (5, 1)])
def test_stacked_spectral_norm_equals_each_matrix_alone(shape):
    # random, repeated top singular values, zero, and scaled copies
    rng = np.random.default_rng(sum(shape))
    k = min(shape)
    q, _ = np.linalg.qr(rng.normal(size=(shape[0], shape[0])))
    r, _ = np.linalg.qr(rng.normal(size=(shape[1], shape[1])))
    repeated = q[:, :k] @ np.diag([2.0] * min(k, 2) + [0.5] * (k - 2)) @ r[:k]
    base = rng.normal(size=shape)
    stack = np.stack([base, repeated, np.zeros(shape), -3.0 * base, 1e-300 * base])
    sigma = spectral_norm(stack)
    assert sigma.shape == (len(stack),)
    for a, s in zip(stack, sigma):
        alone = spectral_norm(a)
        assert isinstance(alone, float)
        assert s.tobytes() == np.float64(alone).tobytes()
        assert alone == np.linalg.norm(a, 2)
    assert spectral_norm(stack.reshape((5, 1) + shape)).tobytes() == sigma.tobytes()


@pytest.mark.parametrize("shape", [(2, 0), (3, 0, 2), (3, 2, 0)])
def test_spectral_norm_rejects_empty_matrices_of_any_stack(shape):
    with pytest.raises(DimensionError):
        spectral_norm(np.zeros(shape))


def test_spectral_norm_of_an_empty_stack_is_empty():
    assert spectral_norm(np.zeros((0, 3, 3))).shape == (0,)
