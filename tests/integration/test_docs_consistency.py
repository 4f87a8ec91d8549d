"""Docs-vs-code consistency: documentation and the code must agree.

CLI: every ``repro <subcommand>`` invocation and every flag shown on such
a line in README.md / docs/*.md must actually exist in ``build_parser()``
(forward), every subcommand must be documented in README.md, and every
long option of every subcommand must appear somewhere in README.md or
docs/*.md (reverse).  Fault plane: every injection-point name used in a
documented chaos spec must exist in ``repro.faults.INJECTION_POINTS``,
and every registered point must be documented somewhere.  This keeps the
docs from drifting as commands, flags, and injection points are added.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.faults import INJECTION_POINTS

REPO = Path(__file__).resolve().parents[2]
DOC_FILES = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))

SUBCOMMAND_RE = re.compile(
    r"(?<!from )(?:python -m )?\brepro[ \t]+(?!import\b)([a-z][a-z0-9_-]*)"
)
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """Map subcommand name -> its ArgumentParser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("parser has no subcommands")


def _options(sub: argparse.ArgumentParser) -> set:
    """All option strings of a subparser, minus the auto-added help."""
    out = set()
    for action in sub._actions:
        out.update(s for s in action.option_strings if s not in ("-h", "--help"))
    return out


def _code_chunks(text: str):
    """Fenced code blocks plus inline backtick spans."""
    for m in re.finditer(r"```.*?```", text, re.DOTALL):
        yield m.group(0)
    no_fences = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for m in re.finditer(r"`[^`\n]+`", no_fences):
        yield m.group(0)


def _cli_lines():
    """Every documented line that invokes ``repro <something>``."""
    for path in DOC_FILES:
        for chunk in _code_chunks(path.read_text()):
            for line in chunk.splitlines():
                if SUBCOMMAND_RE.search(line):
                    yield path.name, line


@pytest.fixture(scope="module")
def parser():
    return build_parser()


@pytest.fixture(scope="module")
def subs(parser):
    return _subparsers(parser)


class TestDocsMatchParser:
    """Forward: what the docs show must exist."""

    def test_doc_files_exist(self):
        assert DOC_FILES[0].exists()
        assert len(DOC_FILES) >= 2, "expected README.md plus docs/*.md"

    def test_documented_subcommands_exist(self, subs):
        for fname, line in _cli_lines():
            name = SUBCOMMAND_RE.search(line).group(1)
            assert name in subs, (
                f"{fname}: documents 'repro {name}' but build_parser() has "
                f"no such subcommand (line: {line.strip()!r})"
            )

    def test_documented_flags_belong_to_their_subcommand(self, subs):
        for fname, line in _cli_lines():
            name = SUBCOMMAND_RE.search(line).group(1)
            valid = _options(subs[name])
            for flag in FLAG_RE.findall(line):
                assert flag in valid, (
                    f"{fname}: shows {flag!r} on 'repro {name}' but that "
                    f"subcommand only accepts {sorted(valid)} "
                    f"(line: {line.strip()!r})"
                )


class TestParserIsDocumented:
    """Reverse: what exists must be documented."""

    def test_every_subcommand_in_readme(self, subs):
        readme = (REPO / "README.md").read_text()
        documented = {
            SUBCOMMAND_RE.search(line).group(1)
            for _, line in _cli_lines()
        }
        for name in subs:
            assert name in documented and f"repro {name}" in readme, (
                f"subcommand 'repro {name}' is not documented in README.md"
            )

    def test_every_flag_documented_somewhere(self, subs):
        corpus = "\n".join(p.read_text() for p in DOC_FILES)
        for name, sub in subs.items():
            for flag in _options(sub):
                if not flag.startswith("--"):
                    continue  # short aliases need no separate docs
                assert flag in corpus, (
                    f"'repro {name}' accepts {flag!r} but no doc file "
                    f"mentions it"
                )

    def test_profile_acceptance_invocation_parses(self, parser):
        """The documented acceptance command must stay parseable."""
        args = parser.parse_args(
            "profile --size 4096 --threads 2 --mu 4 --trace out.json".split()
        )
        assert args.size == 4096 and args.threads == 2
        assert args.mu == 4 and args.trace == "out.json"

    def test_shard_acceptance_invocation_parses(self, parser):
        """The documented shard-tier commands must stay parseable."""
        args = parser.parse_args(
            "shard --shards 2 --port 7380 --vnodes 64 --replicas 1".split()
        )
        assert args.shards == 2 and args.port == 7380
        assert args.vnodes == 64 and args.replicas == 1

    def test_shard_loadgen_acceptance_invocation_parses(self, parser):
        """The shard bench lane (incl. the chaos kill) must stay parseable."""
        args = parser.parse_args(
            "loadgen --shards 2 --sizes 16,32,64,128,256,512 "
            "--requests 2000 --kill-after 0.25 --no-baseline".split()
        )
        assert args.shards == 2 and args.kill_after == 0.25
        assert args.requests == 2000 and args.no_baseline is True

    def test_tune_acceptance_invocations_parse(self, parser):
        """The documented tuning lanes must stay parseable."""
        sweep = parser.parse_args(
            "tune --sizes 64,128,256 --budget 4 --repeats 2 "
            "--wisdom wisdom.json".split()
        )
        assert sweep.sizes == "64,128,256" and sweep.budget == 4
        assert sweep.wisdom == "wisdom.json"
        measure = parser.parse_args(
            "tune --sizes 4096 --backend compiled "
            "--runtime pthreads --threads 2 --budget 6".split()
        )
        assert measure.sizes == "4096" and measure.budget == 6
        assert measure.backend == "compiled" and measure.runtime == "pthreads"
        model = parser.parse_args("search 4096 --machine opteron".split())
        assert model.n == 4096 and model.machine == "opteron"
        with pytest.raises(SystemExit):
            parser.parse_args("search 4096 --measure".split())
        serve = parser.parse_args(
            "serve --tune --tune-interval-ms 250 "
            "--wisdom wisdom.json".split()
        )
        assert serve.tune is True and serve.tune_interval_ms == 250.0
        clean = parser.parse_args(
            "loadgen --tune --windows 6 --tune-interval-ms 150 "
            "--swap-window 2".split()
        )
        assert clean.tune is True and clean.windows == 6
        inverted = parser.parse_args(
            "loadgen --tune --chaos tune.swap_corrupt:1.0".split()
        )
        assert inverted.chaos == "tune.swap_corrupt:1.0"
        prune = parser.parse_args("bench --prune-cache --cache-max 32".split())
        assert prune.prune_cache is True and prune.cache_max == 32

    def test_hunt_acceptance_invocation_parses(self, parser):
        """The documented hunt lanes (clean + inverted) must stay parseable."""
        args = parser.parse_args(
            "hunt --budget 60 --seed 0 --backend all "
            "--corpus tests/hunt/corpus".split()
        )
        assert args.budget == 60 and args.seed == 0
        assert args.backend == "all" and args.corpus == "tests/hunt/corpus"
        assert args.reduce is True  # reduction is the default
        inverted = parser.parse_args(
            "hunt --budget 5 --chaos hunt.exec_corrupt:1.0 "
            "--no-reduce".split()
        )
        assert inverted.chaos == "hunt.exec_corrupt:1.0"
        assert inverted.reduce is False

    def test_simd_acceptance_invocations_parse(self, parser):
        """The documented vec(ν) lanes must stay parseable."""
        gen = parser.parse_args("generate 64 --nu 4".split())
        assert gen.nu == 4
        check = parser.parse_args(
            "check --nu 2 --backend compiled --kmin 4 --kmax 9".split()
        )
        assert check.nu == 2 and check.backend == "compiled"
        serve = parser.parse_args("serve --nu 4".split())
        assert serve.nu == 4
        scalar_sweep = parser.parse_args("hunt --nus 1 --budget 8".split())
        assert scalar_sweep.nus == "1"
        vec_sweep = parser.parse_args("hunt --budget 8".split())
        assert vec_sweep.nus == "1,2,4"  # the default pool is documented


#: an injection point inside a documented chaos spec: ``name.name:rate``
CHAOS_POINT_RE = re.compile(r"\b([a-z][a-z0-9_]*\.[a-z][a-z0-9_]*):[0-9]")


class TestFaultPointsMatchDocs:
    """Documented injection points and ``repro.faults`` must agree."""

    def test_documented_chaos_specs_name_real_points(self):
        for path in DOC_FILES:
            for chunk in _code_chunks(path.read_text()):
                for point in CHAOS_POINT_RE.findall(chunk):
                    assert point in INJECTION_POINTS, (
                        f"{path.name}: chaos spec uses injection point "
                        f"{point!r} but repro.faults only knows "
                        f"{sorted(INJECTION_POINTS)}"
                    )

    def test_every_injection_point_is_documented(self):
        corpus = "\n".join(p.read_text() for p in DOC_FILES)
        for point in INJECTION_POINTS:
            assert point in corpus, (
                f"injection point {point!r} is registered in repro.faults "
                f"but no doc file mentions it"
            )

    def test_chaos_regex_sees_the_docs(self):
        """The forward check must actually be exercising documented specs."""
        found = set()
        for path in DOC_FILES:
            for chunk in _code_chunks(path.read_text()):
                found.update(CHAOS_POINT_RE.findall(chunk))
        assert found, "no documented chaos specs found — regex or docs broke"
