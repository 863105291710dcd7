"""The committed trajectory: every e2e result document under
``benchmarks/trajectory/e2e/prNN/`` names only workloads and metrics
``BENCHMARK.json`` declares, and no run in it recorded a failed op."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_committed_e2e_documents_are_declared_and_failed_nothing():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    paths = sorted((ROOT / "benchmarks/trajectory/e2e").glob("pr*/*.json"))
    assert paths, "no committed e2e document found"
    for path in paths:
        doc = json.loads(path.read_text())
        assert doc["workloads"], path
        assert set(doc["workloads"]) <= workloads, path
        for name, entry in doc["workloads"].items():
            assert entry["runs"], (path, name)
            for run in entry["runs"]:
                assert set(run["metrics"]) <= metrics, (path, name)
                assert run["failed"] == 0, (path, name)
