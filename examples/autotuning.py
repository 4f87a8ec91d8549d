"""Autotuning: search the factorization space for the best FFT algorithm.

Spiral's feedback loop (Figure 1 of the paper): generate candidate
factorization trees, evaluate them — here both on the simulated-machine cost
model and by measuring the generated NumPy code — and keep the best.
Demonstrates dynamic programming vs random search vs fixed radices.

Run:  python examples/autotuning.py
"""

import numpy as np

from repro.machine import SyncProfile, core_duo, estimate_cost
from repro.rewrite import derive_sequential_ct, expand_dft
from repro.search import (
    dp_search,
    measured_objective,
    model_objective,
    random_search,
)
from repro.sigma import lower


def fixed(n: int, strategy: str, spec) -> float:
    f = expand_dft(derive_sequential_ct(n), strategy, min_leaf=32)
    return estimate_cost(lower(f), spec, 1, SyncProfile.NONE).total_cycles


def main() -> None:
    spec = core_duo()
    n = 4096

    print(f"Searching DFT_{n} factorizations on the simulated "
          f"{spec.name}\n")

    obj = model_objective(spec)
    dp = dp_search(n, obj, leaf_max=32)
    rnd = random_search(n, obj, samples=12, leaf_max=32)

    print(f"{'strategy':<22} {'modeled cycles':>15}")
    print(f"{'DP search':<22} {dp.value:>15.0f}   "
          f"(tree: {dp.tree}, {dp.evaluations} evaluations)")
    print(f"{'random search (12)':<22} {rnd.value:>15.0f}")
    print(f"{'fixed balanced':<22} {fixed(n, 'balanced', spec):>15.0f}")
    print(f"{'fixed radix-2':<22} {fixed(n, 'radix2', spec):>15.0f}")

    # the search result is a real program: verify and time it
    from repro.codegen import generate

    gen = generate(lower(dp.formula))
    x = np.random.default_rng(0).standard_normal(n) + 0j
    assert np.allclose(gen(x), np.fft.fft(x), atol=1e-6)
    print("\nDP-selected algorithm verified against numpy.fft ✓")

    # measured-runtime objective on a smaller size (timing is slow)
    n_small = 512
    measured = dp_search(n_small, measured_objective(repeats=2), leaf_max=32)
    print(f"\nMeasured-runtime DP search for DFT_{n_small}: "
          f"best tree {measured.tree} at {measured.value * 1e6:.0f} us/call")

    # wisdom: persist a *measured* ranking so future sessions build its
    # winner without measuring again
    import tempfile
    from pathlib import Path

    from repro import Wisdom
    from repro.serve.plan_cache import PlanCache, PlanKey
    from repro.smp.runtime import SequentialRuntime
    from repro.tune import measured_search

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "wisdom.json"
        ranked = measured_search(n, budget=4, repeats=2,
                                 wisdom=Wisdom(path))  # times and stores
        cache = PlanCache(wisdom=Wisdom(path))  # a "new session"
        plan = cache.get(PlanKey(n))  # requested: balanced/leaf32
        assert plan.spec.strategy == ranked.best.strategy
        y, _ = SequentialRuntime().run(plan, x[np.newaxis])
        assert np.allclose(y[0], np.fft.fft(x), atol=1e-6)
        print(f"wisdom round trip through {path.name}: requested "
              f"{plan.key.strategy}, built the measured best "
              f"{plan.spec.strategy}/leaf{plan.spec.min_leaf}, "
              f"program verified ✓")


if __name__ == "__main__":
    main()
