"""Record the golden outputs and workload fingerprints at seed 0.

    python3 bench/record.py

Run from the repository root, only when a workload is changed on purpose:
the files in golden/ are the reference that every later run is checked
against.  Refuses to record a call that fails or misses a known answer.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(kspace, workload: str) -> dict:
    work_dir = run.ROOT / ".bench_work" / f"record-{workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        prepared = workloads.PREPARE[workload](kspace, 0, str(work_dir))
        _, results = run.run_pass(kspace, prepared.calls)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    outputs, schema = [], {}
    for call, (code, text, *_) in zip(prepared.calls, results):
        output = json.loads(text) if code == 0 else None
        error = f"exit {code}" if output is None else call.check(output)
        if error is not None:
            raise SystemExit(f"{' '.join(call.argv)}: {error}")
        outputs.append(output)
        workloads.merge_schema(schema.setdefault(call.argv[0], {}),
                               workloads.key_schema(output))
    digests = [workloads.output_digest(0, output, schema[call.argv[0]])
               for call, output in zip(prepared.calls, outputs)]
    return {"fingerprint": workloads.fingerprint(prepared.base_docs),
            "schema": schema, "digests": digests}


def main() -> int:
    kspace = run.load_program()
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in sorted(workloads.PREPARE):
        golden = record(kspace, workload)
        path = run.GOLDEN_DIR / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{path.name}: {len(golden['digests'])} calls, "
              f"fingerprint {golden['fingerprint'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
