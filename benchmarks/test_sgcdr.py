"""SG-CDR — the scatter/gather encoder's acceptance gate.

PR 6's tentpole claim: handing the send path a chunk plan (references
to large application buffers, copies only for small control bytes)
beats the old join-to-one-blob encoder by >=1.3x marshal throughput
across the 64 KiB .. 1 MiB ladder.  ``measure_sgcdr`` is the same
probe ``repro-bench`` records into BENCH documents.
"""

from repro.apps.bench import measure_sgcdr

from conftest import KB, MB, report

GATE = 1.3
SIZES = (64 * KB, 256 * KB, 1 * MB)


def test_sgcdr_improvement_gate(once):
    rec = once(measure_sgcdr, sizes=SIZES, repeats=3)
    report("SG-CDR marshal throughput (chunk plan vs blob)",
           [f"{r['size']:>9} B  blob {r['blob_mb_per_s']:9.1f} MB/s"
            f"  sg {r['sg_mb_per_s']:9.1f} MB/s"
            f"  x{r['improvement']:.2f}" for r in rec["sizes"]],
           paper_note="the zero-copy regime permits exactly one touch; "
                      "the blob join was a second one")
    assert rec["min_improvement"] >= GATE, (
        f"scatter/gather encode under {GATE}x over blob: {rec}")


def test_sgcdr_improvement_grows_with_size(once):
    """The join cost scales with payload size, so the win must not
    shrink as payloads grow — the paper's large-message regime."""
    rec = once(measure_sgcdr, sizes=SIZES, repeats=3)
    imps = [r["improvement"] for r in rec["sizes"]]
    assert imps[-1] >= imps[0], (
        f"chunk-plan advantage shrank with payload size: {rec}")
