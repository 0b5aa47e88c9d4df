"""The bench corpora give the answers recorded in bench/golden/*.json.

For each workload, one pass of its call list at seed 0 and at a nonzero
seed (which prefixes every atom and question id and shuffles every list
of each document) must pass bench/run.py's own `verify`: each call exits
0, meets its known answer and matches its golden digest.  The golden
files are used as they are, never re-recorded.  Their digests cover only
the output keys that existed when they were recorded, with the benchmark
itself, so a key added since then is not checked here.
"""

import pytest

import kspace.cli

from test_bench_spans import _bench_run

BENCH = _bench_run()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("workload", sorted(BENCH.workloads.PREPARE))
def test_pass_matches_golden_outputs(workload, seed, tmp_path):
    prepared = BENCH.workloads.PREPARE[workload](kspace, seed, str(tmp_path))
    golden = BENCH.load_golden(workload)
    assert BENCH.workloads.fingerprint(prepared.base_docs) == golden["fingerprint"]
    assert len(prepared.calls) == len(golden["digests"])
    _, results = BENCH.run_pass(kspace, prepared.calls)
    assert BENCH.verify(prepared, golden, results)["failures"] == []
