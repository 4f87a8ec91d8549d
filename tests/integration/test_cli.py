"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestDerive:
    def test_derive(self, capsys):
        assert main(["derive", "256", "-p", "2", "--mu", "4"]) == 0
        out = capsys.readouterr()
        assert "⊗∥" in out.out
        assert "Definition 1" in out.err

    def test_derive_ascii(self, capsys):
        assert main(["derive", "256", "-p", "2", "--mu", "4", "--ascii"]) == 0
        out = capsys.readouterr().out
        assert "(x)||" in out and "⊗" not in out


class TestGenerate:
    def test_generate_python(self, capsys):
        assert main(["generate", "64", "-p", "2", "--mu", "2"]) == 0
        out = capsys.readouterr()
        assert "def make_stages(C):" in out.out
        assert "verified=True" in out.err

    def test_generate_c(self, capsys):
        assert main(["generate", "64", "-p", "2", "--mu", "2", "--emit-c"]) == 0
        out = capsys.readouterr().out
        assert "#include <pthread.h>" in out
        assert "int main(void)" in out

    @pytest.mark.parametrize("flags", [["--nu", "4"], ["--threads", "2"]])
    def test_generate_c_prints_the_verified_program(
        self, capsys, monkeypatch, flags
    ):
        """``--emit-c`` prints the program ``verified=`` was said about, not
        a second derivation: hand the verb a tree the defaults would not
        build and the C must be that tree's."""
        from repro import frontend

        real, seen = frontend.generate_fft, []

        def generate_fft(n, **kw):
            seen.append(real(n, min_leaf=8, **kw))
            return seen[-1]

        monkeypatch.setattr(frontend, "generate_fft", generate_fft)
        assert main(["generate", "1024", *flags, "--emit-c"]) == 0
        out = capsys.readouterr()
        (gen,) = seen
        nstages = len(gen.program.stages)
        assert nstages == 4  # the default tree has 2
        assert f" stages={nstages} " in out.out.splitlines()[1]
        assert f"{nstages} stages, verified=True" in out.err

    def test_generate_c_sequential(self, capsys):
        assert (
            main(["generate", "32", "--emit-c", "--mode", "sequential"]) == 0
        )
        assert "pthread" not in capsys.readouterr().out

    def test_generate_clamps_infeasible_threads(self, capsys):
        """(4·4)² does not divide 64: the verb runs the feasible t=2."""
        assert main(["generate", "64", "-p", "4"]) == 0
        err = capsys.readouterr().err
        assert "p=4(t=2)" in err and "verified=True" in err


class TestProfile:
    def test_profile_clamps_infeasible_threads(self, capsys):
        assert main(["profile", "--size", "64", "--threads", "4"]) == 0
        out = capsys.readouterr()
        assert "p=4(t=2)" in out.err
        assert "# repro profile: DFT_64  p=2  mu=4" in out.out
        assert "verified against numpy.fft: True" in out.out

    def test_openmp_runtime_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "--size", "64", "--runtime", "openmp"]
            )


class TestBench:
    def test_bench_rows(self, capsys):
        assert main(["bench", "core_duo", "--kmin", "6", "--kmax", "8"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0].startswith("log2n,")
        assert len(lines) == 4  # header + 3 sizes

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "cray"])

    def test_backend_bench_unavailable_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        rc = main(["check", "--backend", "compiled", "--kmin", "6",
                   "--kmax", "6"])
        assert rc == 2
        assert "not available" in capsys.readouterr().err


class TestSearch:
    def test_search(self, capsys):
        assert main(["search", "256", "--machine", "core_duo"]) == 0
        out = capsys.readouterr().out
        assert "tree:" in out and "modeled cycles:" in out


class TestServeParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 7373
        assert args.threads == 1 and args.mu == 4
        assert args.window_ms == pytest.approx(0.0)
        assert args.max_batch == 48 and args.queue_limit == 512
        assert args.cache_capacity == 64 and args.wisdom is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "9000", "-p", "2",
                "--window-ms", "5", "--max-batch", "8", "--queue-limit", "64",
                "--cache-capacity", "16", "--wisdom", "w.json",
            ]
        )
        assert args.port == 9000 and args.threads == 2
        assert args.window_ms == pytest.approx(5.0)
        assert args.max_batch == 8 and args.wisdom == "w.json"

    def test_serve_backend_flag(self):
        args = build_parser().parse_args(["serve", "--backend", "compiled"])
        assert args.backend == "compiled"
        assert build_parser().parse_args(["serve"]).backend == "numpy"

    def test_check_backend_flag(self):
        args = build_parser().parse_args(["check", "--backend", "simulator"])
        assert args.backend == "simulator"
        assert build_parser().parse_args(["check"]).backend == "numpy"

    def test_loadgen_defaults_and_sizes(self):
        args = build_parser().parse_args(["loadgen", "--sizes", "64,256"])
        assert args.sizes == "64,256"
        assert args.clients == 4 and args.requests == 500
        assert args.pipeline == 16
        assert args.output is None

    def test_loadgen_output_is_written_where_asked(self, monkeypatch,
                                                   tmp_path):
        """``--output`` is a path, not a hint: no lane renames it."""
        import repro.loadgen as lg

        seen = []
        monkeypatch.setattr(
            lg, "run_shard_loadgen",
            lambda cfg: seen.append(cfg.output) or {"measured": {"lost": 0}},
        )
        monkeypatch.setattr(lg, "render_shard_report", lambda report: "")
        out = str(tmp_path / "BENCH_serve.json")
        assert main(["loadgen", "--shards", "2", "--output", out]) == 0
        assert seen == [out]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
