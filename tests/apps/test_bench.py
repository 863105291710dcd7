"""repro-bench: the benchmark-trajectory document and its validator."""

import functools
import json

from repro.apps.bench import (BENCH_SCHEMA_VERSION, main, run_bench,
                              validate_bench)
from repro.apps.ttcp import KB
from repro.obs import MetricsRegistry


_TINY = dict(max_size=4 * KB, latency_size=1 * KB, latency_calls=3,
             pipeline_calls=8, pipeline_inflight=4, shm_size=64 * KB,
             shm_repeats=2, pubsub_size=64 * KB, pubsub_events=3,
             pubsub_subs=(1, 2), sendfile_sizes=(1024 * KB,),
             sendfile_repeats=2)


@functools.lru_cache(maxsize=None)
def _shared_tiny_doc():
    """The default tiny document, built once per session: every reader
    below deep-copies it before mutating."""
    return run_bench(**_TINY)


def _tiny_doc(**kw):
    return run_bench(**{**_TINY, **kw}) if kw else _shared_tiny_doc()


class TestRunBench:
    def test_document_shape_and_self_validation(self):
        reg = MetricsRegistry()
        doc = _tiny_doc(tag="unit", registry=reg)
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        assert doc["kind"] == "bench"
        assert doc["tag"] == "unit"
        assert validate_bench(doc) == []
        # all three paper figures present with the expected curves
        assert set(doc["figures"]) == {"fig5", "fig6_left", "fig6_right"}
        assert set(doc["figures"]["fig6_right"]) == \
            {"corba/std", "corba/zc", "zc-corba/std", "zc-corba/zc"}
        # latency probe covers both ORB flavours with percentiles
        for version in ("corba", "zc-corba"):
            rec = doc["latency"][version]
            assert rec["count"] == 3
            assert rec["p50"] <= rec["p95"] <= rec["p99"]
        # saturation gauges exported for trajectory dashboards
        assert reg.get("bench_saturation_mbit", figure="fig5",
                       curve="corba/std").value > 0
        # pipelining probe covers both transports on one connection
        for sch in ("loop", "tcp"):
            rec = doc["pipelining"][sch]
            assert [lv["inflight"] for lv in rec["levels"]] == [1, 4]
            assert rec["speedup"] > 1.0
            assert reg.get("bench_pipelining_speedup",
                           scheme=sch).value == rec["speedup"]
        # shm deposit probe: arena carried the payload, no fallbacks
        shm = doc["shm"]
        assert set(shm["schemes"]) == {"shm", "tcp"}
        assert shm["schemes"]["shm"]["shm_deposits_total"] > 0
        assert shm["schemes"]["shm"]["shm_fallbacks_total"] == 0
        assert reg.get("bench_shm_speedup").value == shm["speedup"]
        # pubsub probe: the shm stanza carries single-copy accounting
        ps = doc["pubsub"]
        if ps.get("skipped"):
            assert ps["reason"] and ps["degrade_path_ok"] is True
        else:
            assert [lv["subs"] for lv in ps["levels"]] == [1, 2]
            for lv in ps["levels"]:
                assert lv["shm"]["fanout_posts"] == 3  # one per event
                assert lv["shm"]["shared_refs"] == 3 * lv["subs"]
            assert reg.get("bench_pubsub_speedup_at_max").value == \
                ps["speedup_at_max"]
        # sendfile probe: rows or a visible, degrade-verified skip
        sf = doc["sendfile"]
        if sf.get("skipped"):
            assert sf["reason"] and sf["degrade_path_ok"] is True
        else:
            row = sf["sizes"][0]
            assert row["size"] == 1024 * KB
            assert row["sendfile_mb_per_s"] > 0
            assert row["copy_mb_per_s"] > 0
            assert sf["speedup_at_max"] == row["speedup"]
            assert reg.get("bench_sendfile_speedup").value == \
                sf["speedup_at_max"]

    def test_zero_copy_beats_standard_in_sim_sweep(self):
        doc = _tiny_doc()
        std = doc["figures"]["fig6_right"]["corba/std"][-1]["mbit_per_s"]
        zc = doc["figures"]["fig6_right"]["zc-corba/zc"][-1]["mbit_per_s"]
        assert zc > std


class TestValidator:
    def test_flags_missing_pieces(self):
        doc = _tiny_doc()
        bad = json.loads(json.dumps(doc))
        bad["schema"] = 99
        del bad["figures"]["fig5"]
        del bad["latency"]["corba"]["p95"]
        problems = validate_bench(bad)
        assert any("schema" in p for p in problems)
        assert any("fig5" in p for p in problems)
        assert any("latency.corba" in p for p in problems)

    def test_flags_missing_pipelining(self):
        doc = _tiny_doc()
        bad = json.loads(json.dumps(doc))
        del bad["pipelining"]
        assert any("pipelining" in p for p in validate_bench(bad))
        bad = json.loads(json.dumps(doc))
        del bad["pipelining"]["loop"]["speedup"]
        assert any("pipelining.loop" in p for p in validate_bench(bad))

    def test_flags_missing_shm(self):
        doc = _tiny_doc()
        bad = json.loads(json.dumps(doc))
        del bad["shm"]
        assert any("shm" in p for p in validate_bench(bad))
        bad = json.loads(json.dumps(doc))
        del bad["shm"]["schemes"]["shm"]["shm_deposits_total"]
        assert any("shm_deposits_total" in p for p in validate_bench(bad))

    def test_flags_missing_pubsub(self):
        doc = _tiny_doc()
        bad = json.loads(json.dumps(doc))
        del bad["pubsub"]
        assert any("pubsub" in p for p in validate_bench(bad))
        if not doc["pubsub"].get("skipped"):
            bad = json.loads(json.dumps(doc))
            del bad["pubsub"]["levels"][0]["shm"]["fanout_posts"]
            assert any("single-copy" in p for p in validate_bench(bad))

    def test_cli_check_round_trip(self, tmp_path, capsys):
        doc = _tiny_doc()
        path = tmp_path / "BENCH_t.json"
        path.write_text(json.dumps(doc))
        assert main(["--check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        path.write_text(json.dumps({"schema": 1}))
        assert main(["--check", str(path)]) == 1

    def test_cli_quick_writes_valid_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_q.json"
        assert main(["--quick", "--tag", "t", "--out", str(out),
                     "--max-size", "4096", "--latency-size", "1024",
                     "--latency-calls", "3",
                     "--sendfile-max-size", "1048576"]) == 0
        doc = json.loads(out.read_text())
        assert validate_bench(doc) == []
        assert "bench document written" in capsys.readouterr().out
