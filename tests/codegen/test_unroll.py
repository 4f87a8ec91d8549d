"""Tests for unrolled codelet generation (the code-optimization level)."""

import numpy as np
import pytest

from repro.codegen import Codelet, dft_codelet, symbolic_apply
from repro.codegen.unroll import NodePool
from repro.rewrite import cooley_tukey_step, expand_dft
from repro.spl import DFT, Diag, F2, I, L, Tensor, Twiddle
from tests.conftest import random_vector


class TestNodeAlgebra:
    def test_constant_folding(self):
        p = NodePool()
        a, b = p.const(2.0), p.const(3.0)
        assert p.add(a, b).value == 5.0
        assert p.mul(a, b).value == 6.0
        assert p.sub(a, b).value == -1.0

    def test_additive_identity(self):
        p = NodePool()
        x = p.var(0)
        assert p.add(x, p.const(0.0)) is x
        assert p.add(p.const(0.0), x) is x
        assert p.sub(x, p.const(0.0)) is x

    def test_multiplicative_identities(self):
        p = NodePool()
        x = p.var(0)
        assert p.mul(p.const(1.0), x) is x
        assert p.mul(p.const(0.0), x).value == 0.0
        assert p.mul(p.const(-1.0), x).op == "neg"

    def test_double_negation(self):
        p = NodePool()
        x = p.var(0)
        assert p.neg(p.neg(x)) is x

    def test_x_minus_x(self):
        p = NodePool()
        x = p.var(0)
        assert p.sub(x, x).value == 0.0

    def test_cse_by_hash_consing(self):
        p = NodePool()
        x, y = p.var(0), p.var(1)
        assert p.add(x, y) is p.add(x, y)
        # commutative canonicalization: x+y and y+x share a node
        assert p.add(x, y) is p.add(y, x)


class TestSymbolicApply:
    def setup_method(self):
        self.pool = NodePool()

    def _check(self, expr, rng, atol=1e-9):
        xs = [self.pool.var(i) for i in range(expr.cols)]
        outs = symbolic_apply(expr, xs, self.pool)
        x = random_vector(rng, expr.cols)

        def ev(node):
            if node.op == "const":
                return node.value
            if node.op == "var":
                return x[node.args[0]]
            vals = [ev(a) for a in node.args]
            return {
                "add": lambda: vals[0] + vals[1],
                "sub": lambda: vals[0] - vals[1],
                "mul": lambda: vals[0] * vals[1],
                "neg": lambda: -vals[0],
            }[node.op]()

        got = np.array([ev(o) for o in outs])
        np.testing.assert_allclose(got, expr.apply(x), atol=atol)

    def test_leaves(self, rng):
        self._check(F2(), rng)
        self._check(I(4), rng)
        self._check(L(6, 2), rng)
        self._check(Twiddle(2, 4), rng)
        self._check(Diag(random_vector(rng, 4)), rng)

    def test_structures(self, rng):
        self._check(Tensor(F2(), I(3)), rng)
        self._check(Tensor(I(3), F2()), rng)
        self._check(cooley_tukey_step(2, 4), rng)
        self._check(expand_dft(DFT(8), "radix2"), rng)

    def test_input_length_checked(self):
        with pytest.raises(ValueError):
            symbolic_apply(F2(), [self.pool.var(0)], self.pool)


class TestCodelet:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_dft_codelet_correct(self, rng, n):
        fn = dft_codelet(n).compile_python()
        x = random_vector(rng, n)
        np.testing.assert_allclose(fn(x), np.fft.fft(x), atol=1e-9)

    def test_op_counts_beat_pseudo_flops(self):
        """Unrolled codelets cost fewer real flops than 5 n log2 n — the
        flops the printed code executes: a multiply by +-i is a swap and
        a negation, so DFT_8 is 52 adds and 8 muls."""
        flops = {n: dft_codelet(n).real_flops() for n in (4, 8, 16, 32)}
        assert flops == {4: 16, 8: 60, 16: 188, 32: 524}
        for n, count in flops.items():
            assert count < 5 * n * np.log2(n)

    def test_dft8_radix2_op_count(self):
        # radix-2 DFT_8 at complex granularity: 24 additions and 5
        # twiddle multiplies survive folding (the three +-1 entries fold;
        # +-i counts as a multiply here since we do not split re/im)
        c = dft_codelet(8)
        counts = c.op_counts()
        assert counts["mul"] == 5
        assert counts["add"] + counts["sub"] == 24

    def test_python_source_is_ssa(self):
        src = dft_codelet(4).to_python()
        # each temp assigned exactly once
        import re

        temps = re.findall(r"^\s+(t\d+) =", src, re.M)
        assert len(temps) == len(set(temps))

    def test_c_source_compiles_shape(self):
        src = dft_codelet(8).to_c_vec(1)
        assert src.startswith("static __attribute__((optimize(")
        assert "void dft_8(const double *restrict xre," in src
        assert "double *restrict y, long ys) {" in src
        assert "for (int l" not in src  # explicit statements, no lane loop
        assert "const double t0re =" in src and "cplx" not in src
        assert "  y[0*ys] = " in src and "(1.0)*" not in src
        four = dft_codelet(8).to_c_vec(4)
        assert "const v4 t0re = xr[0] + xr[4]" in four
        assert "*(v4u *)(y + 7*ys + 4) = SHUF(4, " in four

    def test_mixed_radix_codelet(self, rng):
        fn = dft_codelet(12).compile_python()
        x = random_vector(rng, 12)
        np.testing.assert_allclose(fn(x), np.fft.fft(x), atol=1e-9)

    def test_codelet_from_arbitrary_formula(self, rng):
        expr = Tensor(F2(), F2())
        c = Codelet.from_formula(expr, "kron2")
        fn = c.compile_python()
        x = random_vector(rng, 4)
        np.testing.assert_allclose(fn(x), expr.apply(x), atol=1e-10)


class TestCBackendIntegration:
    def test_unrolled_kernels_in_c(self):
        from repro.codegen import generate_c
        from repro.sigma import lower

        prog = lower(cooley_tukey_step(8, 8))
        src = generate_c(prog, mode="sequential", codelet_max=8).source
        assert "codelet0" in src
        assert "unrolled size-8 codelet" in src

    @pytest.mark.skipif(
        not __import__("repro.codegen", fromlist=["compiled_available"])
        .compiled_available(),
        reason="no C compiler",
    )
    def test_unrolled_c_runs(self, rng):
        from repro.codegen import compile_and_run, generate_c
        from repro.sigma import lower

        prog = lower(expand_dft(DFT(64), "balanced", min_leaf=8))
        gen = generate_c(prog, mode="sequential", codelet_max=8)
        x = random_vector(rng, 64)
        np.testing.assert_allclose(
            compile_and_run(gen, x), np.fft.fft(x), atol=1e-7
        )


class TestCodeletProperties:
    """Property-based: unrolled code equals formula semantics for random
    trees, and folding never changes results."""

    def test_random_trees_compile_exactly(self, rng):
        from hypothesis import given, settings, strategies as st

        from repro.rewrite import all_factor_trees, expand_from_tree

        for n in (8, 12, 16):
            for tree in list(all_factor_trees(n, leaf_limit=4))[:6]:
                expr = expand_from_tree(n, tree)
                fn = Codelet.from_formula(expr, f"c{n}").compile_python()
                x = random_vector(rng, n)
                np.testing.assert_allclose(fn(x), expr.apply(x), atol=1e-9)

    def test_codelet_of_parallel_formula(self, rng):
        """Even Eq. (14) unrolls (the backend would never do this for big
        sizes, but the symbolic evaluator must handle every construct)."""
        from repro.rewrite import derive_multicore_ct

        f = derive_multicore_ct(16, 2, 1)
        fn = Codelet.from_formula(f, "par16").compile_python()
        x = random_vector(rng, 16)
        np.testing.assert_allclose(fn(x), np.fft.fft(x), atol=1e-8)

    def test_codelet_of_vector_formula(self, rng):
        from repro.vector import vectorize

        f = vectorize(cooley_tukey_step(4, 4), 2)
        fn = Codelet.from_formula(f, "vec16").compile_python()
        x = random_vector(rng, 16)
        np.testing.assert_allclose(fn(x), np.fft.fft(x), atol=1e-8)

    def test_cse_shrinks_schedule(self):
        """Hash-consing: the DAG schedule is no larger than a naive
        tree-walk would produce (every temp is a distinct expression)."""
        c = dft_codelet(16)
        exprs = {id(node) for _, node in c.schedule}
        assert len(exprs) == len(c.schedule)
