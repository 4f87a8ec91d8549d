"""The ``repro hunt`` CLI verb: exit codes, determinism, corpus filing."""

import json

import pytest

from repro.cli import main
from repro.codegen.compiled_backend import compiled_available
from repro.frontend import spiral_formula
from repro.hunt import ReductionState, load_corpus, replay, state_size


def test_clean_sweep_exits_zero(capsys):
    rc = main(["hunt", "--budget", "6", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "6 case(s) swept" in out
    assert "failed: 0" in out


def test_clean_sweep_is_deterministic(capsys):
    main(["hunt", "--budget", "6", "--seed", "3"])
    first = capsys.readouterr().out
    main(["hunt", "--budget", "6", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_sabotage_yields_minimized_reproducer(tmp_path, capsys):
    """The acceptance invocation: seeded sabotage -> non-zero exit and a
    1-minimal reproducer strictly smaller than the originating formula,
    filed into the corpus directory."""
    rc = main([
        "hunt", "--budget", "2", "--seed", "3",
        "--chaos", "hunt.exec_corrupt:1.0",
        "--corpus", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "reduced [1-minimal]" in out
    filed = load_corpus(tmp_path)
    assert filed
    for _, repro in filed:
        assert repro.failure_kind == "numeric"
        assert repro.origin is not None
        final_nodes = (
            1 if repro.term is None else repro.term.count_nodes()
        )
        assert final_nodes < repro.origin_nodes
        # fault plan restored by the CLI: replay on clean code passes
        assert replay(repro).ok


def test_reproducer_files_the_origin_formula_node_count(tmp_path, capsys):
    """``origin_nodes`` and the printed "N -> M nodes" are the origin's
    formula node count, not the leading (ν) field of its size key: the
    reducer's own ``(nu, nodes)`` strictly decreases against the
    origin's."""
    rc = main([
        "hunt", "--budget", "2", "--seed", "3",
        "--chaos", "hunt.exec_corrupt:1.0",
        "--corpus", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    filed = load_corpus(tmp_path)
    assert filed
    for _, repro in filed:
        c = repro.origin
        nodes = spiral_formula(
            c.n, c.threads, c.mu, c.strategy, nu=c.nu
        ).count_nodes()
        assert nodes > c.nu  # the two fields can be told apart
        assert repro.origin_nodes == nodes
        origin = state_size(ReductionState(c))
        final = state_size(ReductionState(repro.case, repro.term))
        assert origin.nodes == nodes
        assert (final.nu, final.nodes) < (repro.origin.nu, repro.origin_nodes)
        assert f": {origin.nodes} -> {final.nodes} nodes, " in out


def test_no_reduce_files_the_raw_case(tmp_path, capsys):
    rc = main([
        "hunt", "--budget", "2", "--seed", "3",
        "--chaos", "hunt.exec_corrupt:1.0", "--no-reduce",
        "--corpus", str(tmp_path),
    ])
    capsys.readouterr()
    assert rc == 1
    for path, repro in load_corpus(tmp_path):
        data = json.loads(path.read_text())
        assert data["term"] is None
        assert repro.origin is None  # raw filing, no reduction provenance


def test_unavailable_backend_is_a_loud_error(monkeypatch, capsys):
    import repro.codegen.registry as registry
    from repro.codegen import BackendUnavailable

    def deny(name, strict=False):
        raise BackendUnavailable("compiled: no C compiler on this host")

    monkeypatch.setattr(registry, "resolve_backend", deny)
    monkeypatch.setattr("repro.codegen.resolve_backend", deny)
    rc = main(["hunt", "--budget", "1", "--backend", "compiled"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.skipif(not compiled_available(), reason="no C compiler")
def test_failed_compile_is_found_not_replaced_by_numpy(capsys):
    rc = main([
        "hunt", "--budget", "4", "--seed", "0", "--backend", "compiled",
        "--chaos", "codegen.compile_fail:1.0",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL[build-error]" in out
    # the enumerated sweep through the same stack fails the same way
    rc = main([
        "check", "--kmin", "6", "--kmax", "6", "--threads", "2", "--mu", "4",
        "--backend", "compiled", "--chaos", "codegen.compile_fail:1.0",
    ])
    assert rc == 1
    assert "FAIL[build-error] build:compiled" in capsys.readouterr().out


def test_plan_sabotage_kind_is_dynamic_check(tmp_path, capsys):
    rc = main([
        "hunt", "--budget", "4", "--seed", "11",
        "--chaos", "hunt.plan_sabotage:1.0",
        "--corpus", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL[dynamic-check]" in out
