"""kspace benchmark: end-to-end CLI workloads with an optional traced run.

    python3 bench/run.py --workload cascade-explore --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` next to this directory and driven in-process through
``kspace.cli.main(argv)``: one process, one thread, a closed loop in which
each call starts after the previous one returns.  Output is captured in
memory, never written to disk.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it measures untraced passes for half the time and traced
passes (see tracing.py) for the other half, and reports the per-layer
metrics, including the tracing overhead.  Times are scaled to a
reference machine speed (see speed.py).  Every call's exit code and
output are checked against the golden outputs in golden/ and against
known answers.  The last line of standard output is the result object;
the line before it records the run's context.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"

# set-up is repeated until both minimums are met; setup_s is the median
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"), ("steps_per_s", "1/s"), ("peak_rss_mb", "MB"),
)

_COMMON = {"cli.main", "instances.load_instance", "instances.eval_expr",
           "oracle.truth", "oracle.is_sound", "oracle.realize",
           "core.level_restrict", "core.query", "core.homogeneous_level",
           "engine.candidates_from_proposals", "engine.apply_step"}
_EXPLORER = {"engine.explore_tree", "engine.check_edge", "engine.check_node"}
_RUNNER = {"engine.run", "engine.strategy", "engine.step_record"}
# spans each workload must enter, and spans it must never enter
ENTERED = {
    "cascade-explore": _COMMON | _EXPLORER,
    "fuzz-corpus": _COMMON | _EXPLORER | {"instances.InstanceDoc.from_json"},
    "wide-run": _COMMON | _RUNNER | {"instances.InstanceDoc.from_json"},
}
ABSENT = {"wide-run": _EXPLORER}

# (span, field) pairs reported from tracing.Tracer.totals()
SPAN_METRICS = (
    ("engine.check_edge", "calls"), ("engine.check_edge", "incl_s"),
    ("engine.check_node", "calls"), ("engine.check_node", "incl_s"),
    ("engine.explore_tree", "self_s"),
    ("engine.candidates_from_proposals", "calls"),
    ("engine.candidates_from_proposals", "self_s"),
    ("engine.strategy", "calls"), ("engine.strategy", "self_s"),
    ("engine.apply_step", "calls"), ("engine.apply_step", "self_s"),
    ("engine.run", "incl_s"), ("engine.step_record", "incl_s"),
    ("oracle.truth", "calls"), ("oracle.truth", "incl_s"),
    ("oracle.is_sound", "calls"), ("oracle.is_sound", "incl_s"),
    ("oracle.realize", "calls"), ("oracle.realize", "incl_s"),
    ("core.level_restrict", "calls"), ("core.level_restrict", "self_s"),
    ("core.query", "calls"), ("core.query", "self_s"),
    ("core.homogeneous_level", "calls"), ("core.homogeneous_level", "self_s"),
    ("instances.eval_expr", "calls"), ("instances.eval_expr", "self_s"),
    ("instances.load_instance", "calls"), ("instances.load_instance", "incl_s"),
    ("instances.InstanceDoc.from_json", "incl_s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
)
_FIELDS = {"calls": (0, "count"), "incl_s": (1, "s"), "self_s": (2, "s")}
PER_LAYER_EXTRA = (
    ("engine.tree_nodes_per_state", "ratio"),
    ("engine.lemma_checks_per_distinct_edge", "ratio"),
    ("engine.candidates.emitted", "count"),
    ("engine.candidates.max_per_call", "count"),
    ("oracle.realize.kept_ratio", "ratio"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("fail_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_program():
    """Import kspace from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kspace" / "__init__.py").is_file():
        raise BenchError(f"no kspace package under {src}")
    sys.path.insert(0, str(src))
    import kspace
    for name in ("core", "oracle", "engine", "instances", "cli"):
        __import__(f"kspace.{name}")
    if Path(kspace.__file__).resolve().parent != (src / "kspace").resolve():
        raise BenchError(f"imported kspace from {kspace.__file__}, not {src}")
    return kspace


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read golden outputs {path}: {exc}") from None


def run_pass(kspace, calls, tracer=None, probe=None):
    """One closed-loop pass: (wall s, [(exit code, stdout, call s, midpoint)]).
    Probe slices run between calls and are left out of the wall time."""
    results = []
    probe_spent = probe.spent if probe is not None else 0.0
    start = perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = kspace.cli.main(call.argv)
            except Exception as exc:  # a traceback is a failed call
                code = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_call()
        results.append((code, out.getvalue(), elapsed, t0 + elapsed / 2))
        if probe is not None:
            probe.catch_up()
    wall = perf_counter() - start
    if probe is not None:
        wall -= probe.spent - probe_spent
    return wall, results


def verify(prepared, golden: dict, results) -> dict:
    """Check one pass's outputs and collect what its metrics need."""
    stats = {"failures": [], "steps": 0, "step_time": 0.0, "nodes": 0,
             "states": 0, "output_bytes": 0}
    for index, (call, (code, text, elapsed, _)) in enumerate(zip(prepared.calls, results)):
        stats["output_bytes"] += len(text.encode())
        command = call.argv[0]
        error = None
        if code != 0:
            error = f"exit {code}"
        else:
            try:
                output = workloads.unprefix(json.loads(text), prepared.prefix)
            except ValueError:
                output, error = None, "output is not JSON"
            if output is not None:
                error = call.check(output)
                digest = workloads.output_digest(code, output, golden["schema"][command])
                if error is None and digest != golden["digests"][index]:
                    error = "output differs from the golden output"
                if command == "run":
                    stats["steps"] += output["result"]["steps"]
                    stats["step_time"] += elapsed
                elif command == "explore":
                    stats["steps"] += output["edge_count"]
                    stats["step_time"] += elapsed
                    stats["nodes"] += output["node_count"]
                    stats["states"] += output["distinct_state_count"]
        if error is not None:
            stats["failures"].append(f"{' '.join(call.argv)}: {error}")
    return stats


def setup(kspace, workload: str, seed: int, work_dir: Path):
    """Generate and write the inputs and make one warm-up call.  Repeated;
    returns the median time, raw and scaled to the reference speed."""
    times, scaled = [], []
    while (len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS) \
            and len(times) < SETUP_MAX_REPEATS:
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        probe = speed.Probe()
        probe.sample()
        probe_spent = probe.spent
        start = perf_counter()
        prepared = workloads.PREPARE[workload](kspace, seed, str(work_dir),
                                               probe.catch_up)
        run_pass(kspace, prepared.calls[:1])
        probe.catch_up()
        times.append(perf_counter() - start - (probe.spent - probe_spent))
        scaled.append(times[-1] * probe.factor())
    return prepared, statistics.median(times), statistics.median(scaled)


def measure(kspace, prepared, golden, seconds: float, tracer=None):
    """Passes for about `seconds` (at least one): another pass starts only
    if it would end at most half a pass after the deadline."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() + passes[-1]["wall"] / 2 < deadline:
        gc.collect()  # every pass starts from a collected heap
        if tracer is not None:
            tracer.reset()
        probe = speed.Probe()
        probe.sample()
        wall, results = run_pass(kspace, prepared.calls, tracer, probe)
        stats = verify(prepared, golden, results)
        stats["wall"] = wall
        stats["latencies"] = [elapsed for _, _, elapsed, _ in results]
        stats["speed"] = probe.factor()
        stats["call_speed"] = [probe.factor_near(mid) for *_, mid in results]
        if tracer is not None:
            stats["totals"] = tracer.totals()
            stats["counters"] = dict(tracer.counters)
            stats["by_caller"] = tracer.by_caller()
        passes.append(stats)
    return passes


def percentile(values: list[float], p: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def tail_percentile(values: list[float]) -> dict:
    """The highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (100 - p) / 100 >= 10:
            return {"p": p, "value_ms": percentile(values, p) * 1e3,
                    "samples": len(values)}
    return {"p": None, "value_ms": None, "samples": len(values)}


def _latencies(passes, scale: bool = True) -> list[float]:
    if not scale:
        return [x for p in passes for x in p["latencies"]]
    return [x * f for p in passes for x, f in zip(p["latencies"], p["call_speed"])]


def end_to_end(passes, setup_s: float, scale: bool = True) -> dict:
    """Times are scaled by each pass's speed factor unless `scale` is off."""
    def factor(p):
        return p["speed"] if scale else 1.0

    latencies = _latencies(passes, scale)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] * factor(p) for p in passes),
        "verdict_p50_ms": percentile(latencies, 50) * 1e3,
        "verdict_p90_ms": percentile(latencies, 90) * 1e3,
        "steps_per_s": statistics.median(p["steps"] / (p["step_time"] * factor(p))
                                         for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced, untraced) -> dict:
    def median_of(fn):
        return statistics.median(fn(p) for p in traced)

    values = {}
    for span, field in SPAN_METRICS:
        index = _FIELDS[field][0]
        if field == "calls":
            values[f"{span}.{field}"] = median_of(lambda p: p["totals"][span][index])
        else:
            values[f"{span}.{field}"] = median_of(
                lambda p: p["totals"][span][index] * p["speed"])
    values.update({
        "engine.tree_nodes_per_state": median_of(lambda p: _ratio(p["nodes"], p["states"])),
        "engine.lemma_checks_per_distinct_edge": median_of(lambda p: _ratio(
            p["totals"]["engine.check_edge"][0], p["counters"]["distinct_edges"])),
        "engine.candidates.emitted": median_of(lambda p: p["counters"]["candidates_emitted"]),
        "engine.candidates.max_per_call": median_of(lambda p: p["counters"]["candidates_max"]),
        "oracle.realize.kept_ratio": median_of(lambda p: _ratio(
            p["counters"]["proposals_kept"], p["counters"]["proposals_raw"])),
        "cli.output_bytes": median_of(lambda p: p["output_bytes"]),
        "trace.overhead_s": median_of(lambda p: p["wall"] * p["speed"])
        - statistics.median(p["wall"] * p["speed"] for p in untraced),
    })
    return values


def trace_problems(workload: str, traced) -> list[str]:
    problems = []
    for stats in traced:
        for span in sorted(ENTERED[workload]):
            if not stats["totals"][span][0]:
                problems.append(f"span {span} was never entered")
        for span in sorted(ABSENT.get(workload, ())):
            if stats["totals"][span][0]:
                problems.append(f"span {span} was entered")
    return sorted(set(problems))


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        kspace = load_program()
        golden = load_golden(args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        prepared, setup_raw_s, setup_s = setup(kspace, args.workload, args.seed, work_dir)
        digest = workloads.fingerprint(prepared.base_docs)
        if digest != golden["fingerprint"] or len(prepared.calls) != len(golden["digests"]):
            print(f"error: workload {args.workload} fingerprint {digest} does not "
                  f"match the recorded {golden['fingerprint']} "
                  f"({len(prepared.calls)} calls, {len(golden['digests'])} recorded)",
                  file=sys.stderr)
            return 1
        if args.trace:
            untraced = measure(kspace, prepared, golden, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(kspace, prepared, golden, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
        else:
            passes = measure(kspace, prepared, golden, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    failures = [f for p in passes for f in p["failures"]]
    attempted = len(prepared.calls) * len(passes)
    fail_ratio = len(failures) / attempted
    problems = failures[:]
    timed = untraced if args.trace else passes
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **environment(), "passes": len(passes), "fingerprint": digest,
            "fail_ratio": fail_ratio,
            "speed_factor": statistics.median(p["speed"] for p in timed),
            "tail_latency": tail_percentile(_latencies(timed))}
    if args.trace:
        values = per_layer(traced, untraced)
        values["fail_ratio"] = fail_ratio
        units = {f"{s}.{f}": _FIELDS[f][1] for s, f in SPAN_METRICS}
        units.update(PER_LAYER_EXTRA)
        problems += trace_problems(args.workload, traced)
        info["spans_by_caller"] = traced[-1]["by_caller"]
    else:
        values = end_to_end(passes, setup_s)
        units = dict(END_TO_END)
        info["unscaled"] = end_to_end(passes, setup_raw_s, scale=False)
    info["problems"] = problems[:20]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
