import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intralab.transforms import (
    TRANSFORM_SIZES,
    TransformClass,
    _diagonal_scan_indices,
    apply_transform,
    dct2_matrix,
    dst7_matrix,
    energy_compaction,
    transform_class,
)

from oracles import apply_transform as oracle_apply_transform
from oracles import energy_compaction as oracle_energy_compaction


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
@pytest.mark.parametrize("kernel", [dct2_matrix, dst7_matrix])
def test_kernels_orthonormal(n, kernel):
    mat = kernel(n)
    np.testing.assert_allclose(mat @ mat.T, np.eye(n), atol=1e-12)


def test_dct2_flat_first_basis():
    mat = dct2_matrix(8)
    np.testing.assert_allclose(mat[0], np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_dst7_first_basis_rises_from_boundary():
    row = dst7_matrix(8)[0]
    assert (row > 0).all()
    assert row[0] < row[3]  # near zero at the predicted edge, growing away


def test_class_mapping_boundaries():
    assert transform_class(0) == TransformClass.DC0
    assert transform_class(1) == TransformClass.DC0
    assert transform_class(2) == TransformClass.H
    assert transform_class(33) == TransformClass.H
    assert transform_class(34) == TransformClass.D
    assert transform_class(35) == TransformClass.V
    assert transform_class(66) == TransformClass.V
    for bad in (-1, 67):
        with pytest.raises(ValueError):
            transform_class(bad)


def test_class_kernel_pairs():
    assert TransformClass.DC0.value == ("dct2", "dct2")
    assert TransformClass.H.value == ("dst7", "dct2")
    assert TransformClass.D.value == ("dst7", "dst7")
    assert TransformClass.V.value == ("dct2", "dst7")


def test_apply_rejects_unsupported_dims():
    with pytest.raises(ValueError):
        apply_transform(np.zeros((5, 8)), TransformClass.DC0)
    with pytest.raises(ValueError):
        apply_transform(np.zeros((8, 64)), TransformClass.DC0)


def test_constant_block_single_dc_coefficient():
    coeffs = apply_transform(np.full((8, 8), 5.0), TransformClass.DC0)
    assert abs(coeffs[0, 0] - 40.0) < 1e-12
    rest = coeffs.copy()
    rest[0, 0] = 0.0
    np.testing.assert_allclose(rest, 0.0, atol=1e-12)


@pytest.mark.parametrize("klass", list(TransformClass))
def test_parseval_all_classes(klass, rng):
    for h in (4, 8, 16):
        for w in (4, 8):
            r = rng.integers(-255, 256, size=(h, w)).astype(np.float64)
            coeffs = apply_transform(r, klass)
            assert abs((coeffs**2).sum() - (r**2).sum()) <= 1e-9 * (r**2).sum()


def test_rotation_consistency(rng):
    r = rng.integers(-255, 256, size=(8, 16)).astype(np.float64)
    np.testing.assert_allclose(
        apply_transform(r.T, TransformClass.V),
        apply_transform(r, TransformClass.H).T,
        atol=1e-12,
    )
    for sym in (TransformClass.DC0, TransformClass.D):
        square = r[:, :8]
        np.testing.assert_allclose(
            apply_transform(square.T, sym), apply_transform(square, sym).T, atol=1e-12
        )


def _scan(h: int, w: int) -> list[tuple[int, int]]:
    rows, cols = _diagonal_scan_indices(h, w)
    return list(zip(rows.tolist(), cols.tolist()))


def test_diagonal_scan_small_cases():
    assert _scan(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert _scan(2, 3) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]


def test_diagonal_scan_covers_all_positions():
    scan = _scan(4, 8)
    assert len(scan) == 32
    assert len(set(scan)) == 32
    sums = [v + u for v, u in scan]
    assert sums == sorted(sums)


def test_compaction_zero_block_is_one():
    assert energy_compaction(np.zeros((4, 4)), 1) == 1.0


def test_compaction_dc_only_block():
    coeffs = apply_transform(np.full((8, 8), 3.0), TransformClass.DC0)
    assert energy_compaction(coeffs, 1) == pytest.approx(1.0, abs=1e-12)


def test_compaction_k_range():
    coeffs = np.ones((4, 4))
    with pytest.raises(ValueError):
        energy_compaction(coeffs, 0)
    with pytest.raises(ValueError):
        energy_compaction(coeffs, 17)
    assert energy_compaction(coeffs, 16) == pytest.approx(1.0)


def test_compaction_monotone_in_k(rng):
    coeffs = apply_transform(
        rng.integers(-100, 101, size=(8, 8)).astype(np.float64), TransformClass.H
    )
    values = [energy_compaction(coeffs, k) for k in range(1, 65)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)


def test_compaction_hand_case():
    coeffs = np.zeros((4, 4))
    coeffs[0, 0] = 3.0  # scan position 0
    coeffs[1, 1] = 4.0  # scan position 4: (0,0),(0,1),(1,0),(0,2),(1,1)
    assert energy_compaction(coeffs, 4) == pytest.approx(9 / 25)
    assert energy_compaction(coeffs, 5) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(-255, 255), min_size=16, max_size=16),
    klass=st.sampled_from(list(TransformClass)),
)
def test_parseval_property(data, klass):
    r = np.array(data, dtype=np.float64).reshape(4, 4)
    coeffs = apply_transform(r, klass)
    total = (r**2).sum()
    assert abs((coeffs**2).sum() - total) <= 1e-9 * max(total, 1.0)


@pytest.mark.parametrize("klass", list(TransformClass))
def test_stacked_transforms_and_compactions_match_the_single_block_oracle(rng, klass):
    for h in TRANSFORM_SIZES:
        for w in TRANSFORM_SIZES:
            residuals = rng.integers(-255, 256, size=(4, h, w))
            residuals[2] = 0
            for stack in (residuals, np.stack([residuals[:3], residuals[1:]])):  # (4, h, w), (2, 3, h, w)
                coeffs = apply_transform(stack, klass)
                assert coeffs.shape == stack.shape
                for k in sorted({1, max(1, h * w // 4), h * w}):
                    got = energy_compaction(coeffs, k)
                    assert got.shape == stack.shape[:-2]
                    for residual, block_coeffs, compaction in zip(
                        stack.reshape(-1, h, w), coeffs.reshape(-1, h, w), got.ravel().tolist()
                    ):
                        want = oracle_apply_transform(residual, klass)
                        assert np.array_equal(block_coeffs, want)
                        assert compaction == oracle_energy_compaction(want, k)
    empty = apply_transform(np.zeros((0, 4, 8)), klass)
    assert empty.shape == (0, 4, 8) and energy_compaction(empty, 3).shape == (0,)
