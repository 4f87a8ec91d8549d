"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spl import COMPLEX, Expr


def pytest_addoption(parser):
    parser.addoption(
        "--full-grid",
        action="store_true",
        help="run grids that tier-1 samples (the library-vs-single-unit "
        "differential: all 63 plans instead of 31) in full; CI's "
        "compiled job does",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xFF7)


@pytest.fixture
def wisdom_saves(monkeypatch) -> list:
    """Grows by one entry per wisdom-file rewrite, from any instance."""
    from repro.wisdom import Wisdom

    saves: list = []
    save = Wisdom._save
    monkeypatch.setattr(
        Wisdom, "_save", lambda self: (saves.append(self.path), save(self))[1]
    )
    return saves


def random_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(COMPLEX)


def assert_semantics(expr: Expr, rng: np.random.Generator, atol: float = 1e-9):
    """Check ``expr.apply`` against its dense matrix on a random vector."""
    x = random_vector(rng, expr.cols)
    got = expr.apply(x)
    want = expr.to_matrix() @ x
    np.testing.assert_allclose(got, want, atol=atol, rtol=1e-9)


def assert_equal_matrices(a: Expr, b: Expr, atol: float = 1e-9):
    """Check two expressions denote the same matrix."""
    assert a.rows == b.rows and a.cols == b.cols, (
        f"dimension mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
    )
    np.testing.assert_allclose(
        a.to_matrix(), b.to_matrix(), atol=atol, rtol=1e-9
    )
