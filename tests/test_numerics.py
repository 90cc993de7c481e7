"""Unit tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from ramc import numerics
from ramc.errors import InfeasibleMaskError, MatrixSizeError, ShapeError, SolverFailureError
from ramc.numerics import SamplingMask, kron, project_mask, pseudo_inverse, svd, vec


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSvd:
    @pytest.mark.parametrize("rows,cols", [(4, 4), (6, 3), (3, 6), (1, 5)])
    def test_reconstruction(self, rows, cols):
        rng = np.random.default_rng(11)
        m = _random_complex(rng, rows, cols)
        res = svd(m)
        assert np.allclose((res.u * res.s) @ res.v.conj().T, m, atol=1e-12)

    def test_singular_values_sorted_real(self):
        rng = np.random.default_rng(12)
        res = svd(_random_complex(rng, 8, 5))
        assert res.s.dtype.kind == "f"
        assert np.all(res.s[:-1] >= res.s[1:])
        assert np.all(res.s >= 0)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(13)
        res = svd(_random_complex(rng, 7, 4))
        assert np.allclose(res.u.conj().T @ res.u, np.eye(4), atol=1e-12)
        assert np.allclose(res.v.conj().T @ res.v, np.eye(4), atol=1e-12)

    def test_rank_property(self):
        rng = np.random.default_rng(14)
        a = _random_complex(rng, 9, 2)
        b = _random_complex(rng, 2, 9)
        assert svd(a @ b).rank == 2
        assert svd(np.zeros((4, 4))).rank == 0

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            svd(np.ones(5))
        with pytest.raises(ShapeError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_backend_failure_names_shape(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", diverge)
        with pytest.raises(SolverFailureError, match="3x5 matrix"):
            svd(np.ones((3, 5)))


class TestKron:
    def test_vec_identity(self):
        """vec(A X B) == (B^T kron A) vec(X), the workhorse identity."""
        rng = np.random.default_rng(21)
        a = _random_complex(rng, 4, 3)
        x = _random_complex(rng, 3, 5)
        b = _random_complex(rng, 5, 2)
        lhs = vec(a @ x @ b)
        rhs = kron(b.T, a) @ vec(x)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matches_numpy(self):
        rng = np.random.default_rng(22)
        a = _random_complex(rng, 2, 3)
        b = _random_complex(rng, 4, 2)
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_size_guard(self, monkeypatch):
        # 20x20 (x) 20x20 holds 160,000 entries, well under the default cap.
        monkeypatch.setattr(numerics, "MAX_KRON_ELEMENTS", 10_000)
        a = np.ones((20, 20))
        with pytest.raises(MatrixSizeError):
            kron(a, a)
        assert kron(a[:10, :10], a[:10, :10]).shape == (100, 100)


def test_pseudo_inverse_moore_penrose():
    rng = np.random.default_rng(41)
    m = _random_complex(rng, 6, 4)
    p = pseudo_inverse(m)
    assert np.allclose(m @ p @ m, m, atol=1e-10)
    assert np.allclose(p @ m @ p, p, atol=1e-10)


def test_pseudo_inverse_rank_deficient():
    rng = np.random.default_rng(42)
    u = _random_complex(rng, 5, 2)
    m = u @ u.conj().T
    p = pseudo_inverse(m)
    assert np.allclose(m @ p @ m, m, atol=1e-10)


def _mask(rows, cols, pairs):
    observed = np.zeros((rows, cols), dtype=bool)
    for i, j in pairs:
        observed[i, j] = True
    return SamplingMask(observed)


class TestSamplingMask:
    def test_counts(self):
        mask = _mask(3, 4, [(0, 0), (1, 2), (2, 3)])
        assert mask.count == 3
        assert mask.covers_all_lines() is False

    def test_full(self):
        mask = SamplingMask.full(2, 5)
        assert mask.count == 10
        assert mask.covers_all_lines()

    def test_indices_row_major(self):
        mask = _mask(3, 3, [(2, 1), (0, 2), (0, 0)])
        assert mask.indices().tolist() == [[0, 0], [0, 2], [2, 1]]

    def test_empty_mask_rejected(self):
        with pytest.raises(InfeasibleMaskError):
            SamplingMask(np.zeros((3, 3), dtype=bool))


def test_project_mask():
    rng = np.random.default_rng(51)
    m = _random_complex(rng, 3, 3)
    mask = _mask(3, 3, [(0, 0), (2, 2)])
    out = project_mask(m, mask)
    assert out[0, 0] == m[0, 0] and out[2, 2] == m[2, 2]
    assert np.count_nonzero(out) == 2


def test_project_mask_shape_mismatch():
    with pytest.raises(ShapeError):
        project_mask(np.ones((2, 2)), SamplingMask.full(3, 3))


class TestVec:
    def test_column_major(self):
        m = np.array([[1, 2], [3, 4]])
        assert vec(m).tolist() == [1, 3, 2, 4]
