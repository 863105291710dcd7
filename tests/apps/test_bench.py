"""repro-bench: the four-section document, its validator and its CLI."""

import functools
import json

from repro.apps.bench import (BENCH_SCHEMA_VERSION, SECTIONS, main,
                              render_figure, run_bench, validate_bench)
from repro.apps.ttcp import KB

MB = 1024 * KB


@functools.lru_cache(maxsize=None)
def _tiny_doc():
    """The tiny document, built once per session (the one place tier-1
    proves zero dropped replies at 1000 connections): every reader below
    deep-copies it before mutating."""
    return run_bench(max_size=4 * KB, pipeline_calls=8, pipeline_inflight=4,
                     cscale_conns=(100, 1000))


class TestRunBench:
    def test_document_shape_and_self_validation(self):
        doc = _tiny_doc()
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        assert doc["kind"] == "bench"
        assert validate_bench(doc) == []
        # all three paper figures present with the expected curves
        assert set(doc["figures"]) == {"fig5", "fig6_left", "fig6_right"}
        assert set(doc["figures"]["fig6_right"]) == \
            {"corba/std", "corba/zc", "zc-corba/std", "zc-corba/zc"}
        # pipelining probe covers every transport on one connection
        for sch in ("loop", "tcp", "shm"):
            rec = doc["pipelining"][sch]
            assert [lv["inflight"] for lv in rec["levels"]] == [1, 4]
            assert rec["speedup"] > 1.0
        # sgcdr: the ladder, each row with both modes
        assert [r["size"] for r in doc["sgcdr"]["sizes"]] == \
            [64 * KB, 256 * KB, 1 * MB]
        # cscale: both levels ran, the reactor dropped nothing, and its
        # threads did not grow with the connections
        assert [lv["conns"] for lv in doc["cscale"]["levels"]] == [100, 1000]
        for lv in doc["cscale"]["levels"]:
            assert lv.get("skipped") or lv["reactor"]["ok"], lv
        assert _cscale_invariants_broken(doc["cscale"]) == []

    def test_zero_copy_beats_standard_in_sim_sweep(self):
        doc = _tiny_doc()
        std = doc["figures"]["fig6_right"]["corba/std"][-1]["mbit_per_s"]
        zc = doc["figures"]["fig6_right"]["zc-corba/zc"][-1]["mbit_per_s"]
        assert zc > std


# -- a synthetic document: the validator and the CLI without a measurement ----

def _curve(*sizes, mbit=800.0):
    return [{"size": s, "mbit_per_s": mbit} for s in sizes]


def _cscale_rec(goodput, threads=25):
    return {"ok": True, "completed": 500, "expected": 500,
            "goodput_calls_per_s": goodput, "p50_s": 0.01, "p99_s": 0.05,
            "slo_ok": True, "threads": threads}


def _cscale_invariants_broken(cscale):
    """The claims of ``--section cscale`` that ``cscale`` breaks."""
    (section,) = [s for s in SECTIONS if s.name == "cscale"]
    return [claim for claim, holds in section.invariants if not holds(cscale)]


def _doc():
    """A minimal schema-valid bench document."""
    return {
        "schema": BENCH_SCHEMA_VERSION, "kind": "bench", "tag": "t",
        "figures": {
            "fig5": {"corba/std": _curve(4 * KB, 64 * KB)},
            "fig6_left": {"zc-sockets": _curve(4 * KB, 64 * KB)},
            "fig6_right": {
                "corba/std": _curve(64 * KB, 256 * KB, 1 * MB, mbit=300.0),
                "zc-corba/std": _curve(64 * KB, 256 * KB, 1 * MB,
                                       mbit=900.0),
                "zc-corba/zc": _curve(64 * KB, 256 * KB, 1 * MB,
                                      mbit=2400.0),
            },
        },
        "pipelining": {
            "loop": {"speedup": 6.0,
                     "levels": [{"inflight": 1, "calls_per_s": 10.0},
                                {"inflight": 8, "calls_per_s": 60.0}]},
            "tcp": {"speedup": 5.0,
                    "levels": [{"inflight": 1, "calls_per_s": 10.0},
                               {"inflight": 8, "calls_per_s": 50.0}]},
        },
        "sgcdr": {"repeats": 3,
                  "sizes": [{"size": 64 * KB, "blob_mb_per_s": 900.0,
                             "sg_mb_per_s": 2100.0, "improvement": 2.333},
                            {"size": 1 * MB, "blob_mb_per_s": 1000.0,
                             "sg_mb_per_s": 9000.0, "improvement": 9.0}],
                  "min_improvement": 2.333},
        "cscale": {"calls_per_conn": 5, "work_s": 0.0, "p99_slo_s": 0.5,
                   "levels": [
                       {"conns": 100,
                        "threaded": _cscale_rec(900.0),
                        "reactor": _cscale_rec(2100.0),
                        "speedup": 2.333},
                       {"conns": 10000, "skipped": True,
                        "reason": "fd budget too small for 10000 conns"},
                   ]},
    }


class TestValidator:
    def test_synthetic_document_is_valid(self):
        assert validate_bench(_doc()) == []

    def test_flags_missing_pieces(self):
        bad = json.loads(json.dumps(_tiny_doc()))
        bad["schema"] = 99
        del bad["figures"]["fig5"]
        problems = validate_bench(bad)
        assert any("schema" in p for p in problems)
        assert any("fig5" in p for p in problems)

    def test_flags_missing_pipelining(self):
        doc = _tiny_doc()
        bad = json.loads(json.dumps(doc))
        del bad["pipelining"]
        assert any("pipelining" in p for p in validate_bench(bad))
        bad = json.loads(json.dumps(doc))
        del bad["pipelining"]["loop"]["speedup"]
        assert any("pipelining.loop" in p for p in validate_bench(bad))

    def test_missing_sgcdr_flagged(self):
        doc = _doc()
        del doc["sgcdr"]
        assert any("sgcdr" in p for p in validate_bench(doc))
        doc = _doc()
        del doc["sgcdr"]["sizes"][0]["sg_mb_per_s"]
        assert any("sgcdr.sizes" in p for p in validate_bench(doc))

    def test_missing_cscale_flagged(self):
        doc = _doc()
        del doc["cscale"]
        assert any("cscale" in p for p in validate_bench(doc))

    def test_cscale_skipped_level_requires_reason(self):
        doc = _doc()
        doc["cscale"]["levels"][1] = {"conns": 10000, "skipped": True}
        assert any("skipped without a reason" in p
                   for p in validate_bench(doc))

    def test_cscale_ok_record_requires_quantiles(self):
        doc = _doc()
        del doc["cscale"]["levels"][0]["reactor"]["p99_s"]
        assert any("missing quantiles" in p for p in validate_bench(doc))
        doc = _doc()
        del doc["cscale"]["levels"][0]["reactor"]["threads"]
        assert any("threads" in p for p in validate_bench(doc))
        doc = _doc()
        del doc["cscale"]["levels"][0]["speedup"]
        assert any("missing speedup" in p for p in validate_bench(doc))

    def test_cscale_holds_the_reactor_threads_flat(self):
        """The thread count at the most connections run, against the
        fewest; a skipped level is not a level run."""
        doc = _doc()
        assert _cscale_invariants_broken(doc["cscale"]) == []
        levels = doc["cscale"]["levels"]
        levels.append({"conns": 1000, "threaded": _cscale_rec(800.0, 1018),
                       "reactor": _cscale_rec(2000.0, 25), "speedup": 2.5})
        assert _cscale_invariants_broken(doc["cscale"]) == []
        levels[-1]["reactor"]["threads"] = 26
        assert _cscale_invariants_broken(doc["cscale"]) == [
            "reactor threads at the most connections <= at the fewest"]

    def test_render_figure_handles_missing_figure(self):
        assert "no fig5" in render_figure({"figures": {}})

    def _write(self, tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_cli_check_round_trip(self, tmp_path, capsys):
        path = self._write(tmp_path, "BENCH_t.json", _tiny_doc())
        assert main(["--check", path]) == 0
        assert "OK" in capsys.readouterr().out
        path = self._write(tmp_path, "BENCH_t.json", {"schema": 1})
        assert main(["--check", path]) == 1

    def test_cli_quick_writes_valid_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_q.json"
        assert main(["--quick", "--tag", "t", "--out", str(out),
                     "--max-size", "4096", "--cscale-conns", "100"]) == 0
        doc = json.loads(out.read_text())
        assert doc["tag"] == "t"
        assert validate_bench(doc) == []
        assert "bench document written" in capsys.readouterr().out

    def test_cli_unreadable_document(self, tmp_path, capsys):
        assert main(["--check", str(tmp_path / "missing.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_cli_render(self, tmp_path, capsys):
        a = self._write(tmp_path, "doc.json", _doc())
        assert main(["--render", a]) == 0
        out = capsys.readouterr().out
        assert "corba/std" in out and "Mb/s" in out
