"""Tests for the index-map algebra (tables, inversion, structure recovery)."""

import numpy as np
import pytest

from repro.sigma import (
    diag_values,
    invert_table,
    recover_affine,
    source_table,
)
from repro.spl import Compose, Diag, DFT, I, L, LinePerm, Perm, Tensor, Twiddle


class TestSourceTable:
    def test_identity(self):
        np.testing.assert_array_equal(source_table(I(6)), np.arange(6))

    def test_stride_perm(self):
        # L^{6}_2 reads at stride 2: y = x[0], x[2], x[4], x[1], x[3], x[5]
        np.testing.assert_array_equal(source_table(L(6, 2)), [0, 2, 4, 1, 3, 5])

    def test_explicit_perm(self):
        p = Perm([2, 0, 1])  # y[perm[k]] = x[k]
        x = np.arange(3, dtype=complex)
        got = p.apply(x).real.astype(int)
        np.testing.assert_array_equal(source_table(p), got)

    def test_composite(self):
        e = Compose(L(8, 2), Tensor(L(4, 2), I(2)))
        s = source_table(e)
        x = np.random.default_rng(0).standard_normal(8)
        np.testing.assert_allclose(e.apply(x.astype(complex)).real, x[s])

    def test_line_perm(self):
        e = LinePerm(L(4, 2), 2)
        s = source_table(e)
        assert s.size == 8
        # whole lines of 2 move together
        assert all(s[2 * i + 1] == s[2 * i] + 1 for i in range(4))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            source_table(DFT(4))


class TestInversion:
    @pytest.mark.parametrize("mn,m", [(8, 2), (12, 3), (16, 4)])
    def test_L_inverse(self, mn, m):
        s = source_table(L(mn, m))
        si = invert_table(s)
        np.testing.assert_array_equal(s[si], np.arange(mn))
        np.testing.assert_array_equal(si, source_table(L(mn, m).inverse()))


class TestDiagValues:
    def test_twiddle(self):
        np.testing.assert_allclose(
            diag_values(Twiddle(2, 4)), Twiddle(2, 4).values
        )

    def test_tensor_of_identity_and_diag(self):
        d = Diag([1.0, 2.0])
        e = Tensor(I(2), d)
        np.testing.assert_allclose(diag_values(e), [1, 2, 1, 2])


class TestStructureRecovery:
    def test_grid_recovery(self):
        j = np.arange(4)[:, None]
        t = np.arange(3)[None, :]
        table = 7 + 12 * j + 2 * t
        g = recover_affine(table)
        assert (g.base, g.digits, g.col_stride) == (7, ((4, 12),), 2)
        np.testing.assert_array_equal(g.indices(), table)

    def test_grid_rejects_irregular(self):
        table = np.array([[0, 1], [2, 4]])
        assert recover_affine(table) is None
        # a run that does not divide the row count is no digit
        assert recover_affine(np.array([[0], [1], [2], [7], [8]])) is None

    def test_a_folded_stride_permutation_is_one_more_digit(self):
        """2^16's stage-2 gather: ``(jb%64)*1024 + jb/64 + l*256 + u*16``."""
        jb = np.arange(1024)[:, None, None]
        lane = np.arange(4)[None, :, None]
        u = np.arange(16)[None, None, :]
        table = (jb % 64 * 1024 + jb // 64 + lane * 256 + u * 16).reshape(
            4096, 16
        )
        f = recover_affine(table, 4)
        assert (f.base, f.digits, f.col_stride) == (
            0, ((64, 1024), (16, 1)), 16
        )
        assert (f.lanes, f.lane_stride) == (4, 256)
        np.testing.assert_array_equal(f.indices(), table)
        # read row by row the lane is the lowest digit, and 4 steps of 256
        # run on into 64 of 1024: one digit
        assert recover_affine(table).digits == ((256, 256), (16, 1))
        assert recover_affine(table, 3) is None  # lanes must divide rows

    def test_one_row_and_one_column(self):
        f = recover_affine(np.array([[5, 8, 11]]))
        assert (f.base, f.digits, f.col_stride) == (5, ((1, 1),), 3)
        f = recover_affine(np.array([[5], [5], [5]]))
        assert (f.digits, f.col_stride) == (((3, 0),), 1)

    def test_grid_on_lowered_ct_gathers(self):
        """The strided stage of a CT formula recovers as a clean grid."""
        from repro.sigma import lower
        from repro.rewrite import cooley_tukey_step

        prog = lower(cooley_tukey_step(4, 4))
        # second stage is DFT_4 (x) I_4: gathers should be grid-structured
        stage = prog.stages[-1]
        for lp in stage.loops:
            assert len(recover_affine(lp.gather).digits) == 1
