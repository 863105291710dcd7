"""The bench section table: one entry is the whole declaration.

A toy section registered from inside a test (one ``SECTIONS`` entry,
nothing else touched) must flow through ``run_bench``,
``validate_bench``, ``compare_bench`` and ``--section``; and what the
real table produces today (the key tree of a ``--quick`` document, the
series ``--compare`` gates against the committed baseline) is pinned.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.apps import bench
from repro.apps.bench import (SECTIONS, Section, compare_bench, main,
                              validate_bench)

ROOT = Path(__file__).resolve().parents[2]


def _toy(score):
    return Section(
        "toy", lambda: {"score": score, "rows": [{"n": 1, "rate": 10.0}]},
        check=lambda rec: [] if "score" in rec
        else ["toy: missing 'score'"],
        gate=lambda old, new: [("toy.score", old["score"], new["score"])],
        invariants=(("score stays positive", lambda rec: rec["score"] > 0),),
        summary=lambda rec: [f"toy: scored {rec['score']}"],
        gauges=lambda rec: [("bench_toy_score", {}, rec["score"])])


@pytest.fixture
def only_toy(monkeypatch):
    """Swap the table for one toy entry (the real measurements have
    their own tests and take a minute)."""
    def install(score=3.0):
        monkeypatch.setattr(bench, "SECTIONS", [_toy(score)])
    return install


class TestToySection:
    def test_run_bench_emits_it_and_exports_its_gauges(self, only_toy):
        from repro.obs import MetricsRegistry

        only_toy()
        reg = MetricsRegistry()
        doc = bench.run_bench(tag="t", registry=reg)
        assert doc == {"schema": bench.BENCH_SCHEMA_VERSION,
                       "kind": "bench", "tag": "t",
                       "toy": {"score": 3.0,
                               "rows": [{"n": 1, "rate": 10.0}]}}
        assert reg.get("bench_toy_score").value == 3.0
        assert validate_bench(doc) == []

    def test_validate_rejects_a_malformed_copy(self, only_toy):
        only_toy()
        doc = bench.run_bench()
        bad = copy.deepcopy(doc)
        del bad["toy"]["score"]
        assert validate_bench(bad) == ["toy: missing 'score'"]
        del bad["toy"]
        assert any("'toy'" in p for p in validate_bench(bad))

    def test_compare_gates_its_series(self, only_toy):
        only_toy()
        old = bench.run_bench()
        new = copy.deepcopy(old)
        assert [r["metric"] for r in compare_bench(old, new)] == \
            ["toy.score"]
        new["toy"]["score"] = 1.0
        assert [r["ok"] for r in compare_bench(old, new)] == [False]

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


class TestPinnedOutputs:
    def test_gated_series_against_the_baseline(self):
        """The 14 series ``--compare BENCH_baseline.json NEW`` prints
        for a quick document, in the order they are printed."""
        baseline = json.loads((ROOT / "BENCH_baseline.json").read_text())
        rows = compare_bench(baseline, copy.deepcopy(baseline))
        assert [r["metric"] for r in rows] == [
            "pipelining.loop.speedup",
            "pipelining.tcp.speedup",
            "shm.speedup",
            "pubsub@8.shm_events_per_s",
            "pubsub@8.speedup",
            "fig6_right.zc-corba/std@16384.bytes_per_s",
            "fig6_right.zc-corba/zc@16384.bytes_per_s",
            "sgcdr@65536.sg_mb_per_s",
            "sgcdr@262144.sg_mb_per_s",
            "sgcdr@1048576.sg_mb_per_s",
            "sendfile@1048576.sendfile_mb_per_s",
            "sendfile@4194304.sendfile_mb_per_s",
            "sendfile@16777216.sendfile_mb_per_s",
            "cscale@500.reactor_goodput_calls_per_s",
        ]

    def test_document_order_is_table_order(self):
        assert [s.name for s in SECTIONS] == [
            "figures", "latency", "pipelining", "shm", "pubsub", "sgcdr",
            "sendfile", "cscale"]

    def test_key_tree_of_a_document_is_the_baselines(self, tmp_path):
        """A document written today has, key for key, the tree of the
        committed schema-7 baseline (a ``--quick`` document of the
        parent commit); sizes are clipped so the run stays short."""
        baseline = json.loads((ROOT / "BENCH_baseline.json").read_text())
        out = tmp_path / "BENCH_now.json"
        assert main(["--quick", "--out", str(out), "--max-size", "4096",
                     "--latency-calls", "3", "--pubsub-subs", "1,2",
                     "--pubsub-events", "3", "--cscale-conns", "100",
                     "--sendfile-max-size", "1048576"]) == 0
        assert _key_tree(json.loads(out.read_text())) == \
            _key_tree(baseline)
