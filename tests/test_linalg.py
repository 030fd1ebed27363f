"""Tests for the classical Gram-Schmidt QR and its operation count."""

import re
import warnings

import numpy as np
import pytest

from spheredec.lattice import (
    DegenerateChannelError,
    Representation,
    gram_schmidt_qr,
    preprocessing_flops,
    real_form,
)

from conftest import random_channel


def householder_qr_positive(h):
    """Independent oracle: LAPACK Householder QR, diagonal forced positive."""
    q, r = np.linalg.qr(h)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :], r * signs[:, None]


def random_interleaved(rng, n):
    return real_form(random_channel(rng, n), Representation.INTERLEAVED)


class TestGramSchmidtQr:
    def test_identity(self):
        f = gram_schmidt_qr(np.eye(4))
        assert np.array_equal(f.q, np.eye(4))
        assert np.array_equal(f.r, np.eye(4))

    def test_hand_example(self):
        # columns (3,4) and (1,2): norms and projections work out to
        # fifths exactly
        h = np.array([[3.0, 1.0], [4.0, 2.0]])
        f = gram_schmidt_qr(h)
        assert np.allclose(f.r, [[5.0, 11.0 / 5.0], [0.0, 2.0 / 5.0]], atol=1e-12)
        assert np.allclose(f.q, [[3.0 / 5.0, -4.0 / 5.0], [4.0 / 5.0, 3.0 / 5.0]], atol=1e-12)
        qh, rh = householder_qr_positive(h)
        assert np.allclose(f.q, qh, atol=1e-12)
        assert np.allclose(f.r, rh, atol=1e-12)

    def test_matches_householder_oracle(self):
        rng = np.random.default_rng(7)
        for size in (2, 3, 5, 8, 12):
            for _ in range(10):
                h = rng.standard_normal((size, size))
                f = gram_schmidt_qr(h)
                qh, rh = householder_qr_positive(h)
                assert np.allclose(f.q, qh, atol=1e-9)
                assert np.allclose(f.r, rh, atol=1e-9)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = rng.standard_normal((8, 8))
            f = gram_schmidt_qr(h)
            assert np.max(np.abs(h - f.q @ f.r)) < 1e-9
            assert np.max(np.abs(f.q.T @ f.q - np.eye(8))) < 1e-9
            assert np.all(np.diag(f.r) > 0)
            assert np.array_equal(np.tril(f.r, -1), np.zeros((8, 8)))

    def test_rank_deficiency_raises(self):
        h = np.ones((4, 4))
        with pytest.raises(DegenerateChannelError):
            gram_schmidt_qr(h)

    def test_non_square_rejected(self):
        for shape in ((3, 4), (0, 0)):
            for pair_zeros in (False, True):
                with pytest.raises(ValueError, match=re.escape(
                        f"expected a non-empty square matrix, got shape {shape}")):
                    gram_schmidt_qr(np.ones(shape), pair_zeros=pair_zeros)

    @pytest.mark.parametrize("pair_zeros", [False, True])
    def test_complex_rejected(self, pair_zeros):
        # the imaginary part is not dropped: the real form holds it
        for h in (np.array([[1 + 5j, 0], [0, 1]]), np.eye(2, dtype=complex)):
            with pytest.raises(ValueError, match="^expected a real matrix, got a complex "
                                                 "one; take its real_form first$"):
                gram_schmidt_qr(h, pair_zeros=pair_zeros)

    def test_odd_size_rejected_when_paired(self):
        h = np.eye(3)
        with pytest.raises(ValueError, match="^pair-structured matrices must have even size$"):
            gram_schmidt_qr(h, pair_zeros=True)
        assert np.array_equal(gram_schmidt_qr(h).r, h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pair_zeros", [False, True])
    def test_non_finite_rejected(self, bad, pair_zeros):
        h = real_form(np.eye(2, dtype=complex), Representation.INTERLEAVED)
        h[3, 2] = bad
        with pytest.raises(ValueError, match="not finite"):
            gram_schmidt_qr(h, pair_zeros=pair_zeros)
        with pytest.raises(ValueError, match="not finite"):
            gram_schmidt_qr(np.full((4, 4), bad), pair_zeros=pair_zeros)

    @pytest.mark.parametrize("pair_zeros", [False, True])
    def test_overflowing_input_rejected(self, pair_zeros):
        # squared column norms of 1e200 entries overflow; the check must
        # raise before any arithmetic, so no RuntimeWarning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (np.eye(4) * 1e200, -np.eye(4) * 1e150):
                with pytest.raises(ValueError, match="could overflow"):
                    gram_schmidt_qr(h, pair_zeros=pair_zeros)
            f = gram_schmidt_qr(np.eye(4) * 1e149, pair_zeros=pair_zeros)
        assert np.allclose(f.r, np.eye(4) * 1e149, rtol=1e-15, atol=0.0)


class TestInterleavedZeroStructure:
    """Structural zeros r[k, k+1] (even 0-based k) of interleaved channels."""

    def test_zeros_small_and_forced(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(1000):
                f = gram_schmidt_qr(random_interleaved(rng, n), pair_zeros=True)
                assert f.zero_structure_max < 1e-9
                for k in range(0, 2 * n, 2):
                    assert f.r[k, k + 1] == 0.0

    def test_adjacent_columns_orthogonal(self):
        # the (Re, Im) column pairs of the interleaved form are orthogonal
        # by construction, before any factorization
        rng = np.random.default_rng(12)
        for n in (2, 4, 6):
            hi = random_interleaved(rng, n)
            for k in range(0, 2 * n, 2):
                assert abs(hi[:, k] @ hi[:, k + 1]) < 1e-12
                assert abs(hi[:, k] @ hi[:, k] - hi[:, k + 1] @ hi[:, k + 1]) < 1e-12

    def test_paired_residual_norms_equal(self):
        # both columns of a pair keep equal residual norms through the
        # factorization, visible as equal adjacent diagonal entries of R
        rng = np.random.default_rng(13)
        for n in (2, 4, 6):
            for _ in range(200):
                f = gram_schmidt_qr(random_interleaved(rng, n), pair_zeros=True)
                d = np.diag(f.r)
                for k in range(0, 2 * n, 2):
                    assert abs(d[k] - d[k + 1]) < 1e-9

    def test_unstructured_matrix_rejected_when_declared(self):
        rng = np.random.default_rng(14)
        h = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="pair zero structure"):
            gram_schmidt_qr(h, pair_zeros=True)

    def test_zero_structure_max_none_by_default(self):
        rng = np.random.default_rng(15)
        f = gram_schmidt_qr(rng.standard_normal((4, 4)))
        assert f.zero_structure_max is None


def test_preprocessing_flops_hand_count():
    # m = 2 by hand: k=0 -> norm 3 + divides 2; k=1 -> inner 3, update 4,
    # norm 3, divides 2; rotation 4 + 2
    assert preprocessing_flops(2) == 5 + 12 + 6
    assert preprocessing_flops(4) > preprocessing_flops(2)


def test_preprocessing_flops_closed_form_matches_count():
    for m in range(2, 13):
        total = 0
        for k in range(m):
            total += k * (2 * m - 1)  # projection coefficients
            total += 2 * k * m        # residual update
            total += 2 * m - 1        # squared norm
            total += m                # normalization divides
        total += m * m + m * (m - 1)  # rotation
        assert preprocessing_flops(m) == total
