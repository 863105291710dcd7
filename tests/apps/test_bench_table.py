"""The bench section table: one entry is the whole declaration.

A toy section registered from inside a test (one ``SECTIONS`` entry,
nothing else touched) must flow through ``run_bench``,
``validate_bench`` and ``--section``; what the real table produces
today (its order, the key tree of a ``--quick`` document) is pinned;
and every ``repro-bench`` command line the workflows and the docs show
must still be one the CLI accepts.
"""

import copy
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.apps import bench
from repro.apps.bench import SECTIONS, Section, main, validate_bench

ROOT = Path(__file__).resolve().parents[2]


def _toy(score):
    return Section(
        "toy", lambda: {"score": score, "rows": [{"n": 1, "rate": 10.0}]},
        check=lambda rec: [] if "score" in rec
        else ["toy: missing 'score'"],
        invariants=(("score stays positive", lambda rec: rec["score"] > 0),),
        summary=lambda rec: [f"toy: scored {rec['score']}"])


@pytest.fixture
def only_toy(monkeypatch):
    """Swap the table for one toy entry (the real measurements have
    their own tests and take a while)."""
    def install(score=3.0):
        monkeypatch.setattr(bench, "SECTIONS", [_toy(score)])
    return install


class TestToySection:
    def test_run_bench_emits_it(self, only_toy):
        only_toy()
        doc = bench.run_bench(tag="t")
        assert doc == {"schema": bench.BENCH_SCHEMA_VERSION,
                       "kind": "bench", "tag": "t",
                       "toy": {"score": 3.0,
                               "rows": [{"n": 1, "rate": 10.0}]}}
        assert validate_bench(doc) == []

    def test_validate_rejects_a_malformed_copy(self, only_toy):
        only_toy()
        doc = bench.run_bench()
        bad = copy.deepcopy(doc)
        del bad["toy"]["score"]
        assert validate_bench(bad) == ["toy: missing 'score'"]
        del bad["toy"]
        assert any("'toy'" in p for p in validate_bench(bad))

    def test_section_flag_runs_it_and_holds_its_invariants(
            self, only_toy, capsys):
        only_toy(score=3.0)
        assert main(["--section", "toy"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[:out.rindex("}") + 1])["score"] == 3.0
        assert "toy: scored 3.0" in out
        only_toy(score=-1.0)
        assert main(["--section", "toy"]) == 1
        assert "score stays positive" in capsys.readouterr().err


def _key_tree(node):
    """The document's keys with the numbers ignored; a list of rows
    collapses to the tree of its first row."""
    if isinstance(node, dict):
        return {k: _key_tree(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_key_tree(node[0])] if node else []
    return None


_POINTS = [{"size": None, "mbit_per_s": None}]
_PIPE = {"work_s": None, "speedup": None,
         "levels": [{"inflight": None, "calls": None, "seconds": None,
                     "calls_per_s": None}]}
_CSCALE_SIDE = {"ok": None, "completed": None, "expected": None,
                "goodput_calls_per_s": None, "p50_s": None, "p99_s": None,
                "slo_ok": None}
#: the key tree of a schema-8 ``--quick`` document
_QUICK_TREE = {
    "schema": None, "kind": None, "tag": None,
    "figures": {
        "fig5": {"raw/std": _POINTS, "corba/std": _POINTS},
        "fig6_left": {"raw/std": _POINTS, "raw/zc": _POINTS},
        "fig6_right": {"corba/std": _POINTS, "corba/zc": _POINTS,
                       "zc-corba/std": _POINTS, "zc-corba/zc": _POINTS}},
    "pipelining": {"loop": _PIPE, "tcp": _PIPE},
    "sgcdr": {"repeats": None,
              "sizes": [{"size": None, "blob_mb_per_s": None,
                         "sg_mb_per_s": None, "improvement": None}],
              "min_improvement": None},
    "cscale": {"calls_per_conn": None, "work_s": None, "p99_slo_s": None,
               "levels": [{"conns": None, "threaded": _CSCALE_SIDE,
                           "reactor": _CSCALE_SIDE, "speedup": None}]},
}


class TestPinnedOutputs:
    def test_document_order_is_table_order(self):
        assert [s.name for s in SECTIONS] == [
            "figures", "pipelining", "sgcdr", "cscale"]

    def test_key_tree_of_a_quick_document(self, tmp_path):
        """Sizes are clipped so the run stays short."""
        out = tmp_path / "BENCH_now.json"
        assert main(["--quick", "--out", str(out), "--max-size", "4096",
                     "--pipeline-calls", "8", "--cscale-conns", "100",
                     "--cscale-calls", "2"]) == 0
        assert _key_tree(json.loads(out.read_text())) == _QUICK_TREE


# -- the command lines CI and the docs show -----------------------------------

_INVOCATION = re.compile(r"(?:repro-bench|python -m repro\.apps\.bench)\s+(--.*)")


def _fenced(lines):
    inside = False
    for line in lines:
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            yield line


def _argv(text):
    """The words of a shell command up to its first ``&&``, ``|``,
    ``;`` or ``#`` comment."""
    lex = shlex.shlex(text, posix=True, punctuation_chars=True)
    lex.whitespace_split = True
    return list(itertools.takewhile(
        lambda word: word[0] not in lex.punctuation_chars, lex))


def _shown_invocations():
    """``(file name, argv)`` of every ``repro-bench ...`` in the
    workflows and in the fenced blocks of README.md and the verify
    skill; a command runs on over a trailing backslash and over
    following lines that begin with a flag (YAML's folded ``run: >``)."""
    for path in (*sorted((ROOT / ".github/workflows").glob("*.yml")),
                 ROOT / "README.md",
                 ROOT / ".claude/skills/verify/SKILL.md"):
        lines = path.read_text().splitlines()
        if path.suffix == ".md":
            lines = list(_fenced(lines))
        for i, line in enumerate(lines):
            m = _INVOCATION.search(line)
            if not m:
                continue
            text = m.group(1).rstrip()
            for nxt in lines[i + 1:]:
                if text.endswith("\\"):
                    text = text[:-1]
                elif not nxt.lstrip().startswith("--"):
                    break
                text += " " + nxt.strip()
            yield path.name, _argv(text)


def test_every_shown_command_line_is_one_the_cli_accepts():
    shown = list(_shown_invocations())
    assert {name for name, _ in shown} == \
        {"ci.yml", "nightly.yml", "README.md", "SKILL.md"}
    assert ("ci.yml", ["--section", "cscale", "--cscale-conns", "500",
                       "--cscale-calls", "4"]) in shown  # a folded one
    for name, argv in shown:
        try:
            bench._parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: repro-bench {' '.join(argv)}: unknown "
                        f"flag or section (argparse said why on stderr)")
