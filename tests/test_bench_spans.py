"""The benchmark's traced run requires each workload to enter a set of
spans (`ENTERED` in bench/run.py).  A refactor that routes work around a
traced function breaks that requirement; this guard notices it in the
tier-1 run, on one `run`, `explore` and `lint` call of t3 read from a
file.  The span sets are read from bench/run.py itself."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from kspace import cli
from kspace.instances import builtin_t3

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_run():
    # bench/run.py imports its siblings (tracing among them) by bare name
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_cli_calls_enter_every_required_span(tmp_path):
    bench = _bench_run()
    required = set().union(*bench.ENTERED.values())
    path = tmp_path / "t3.json"
    path.write_text(builtin_t3().to_json())
    tracer = bench.tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # through the module attribute, which the tracer replaces
            codes = [cli.main([command, str(path)])
                     for command in ("run", "explore", "lint")]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    entered = {span for span, (calls, _, _) in tracer.totals().items() if calls}
    assert required <= entered, sorted(required - entered)


def _traced_eval_expr_calls(argv_list):
    """Per command line, the traced `instances.eval_expr` calls by caller
    span."""
    bench = _bench_run()
    tracer = bench.tracing.Tracer()
    tracer.install()
    calls = []
    try:
        for argv in argv_list:
            tracer.reset()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            calls.append({caller: count for (caller, span), (count, _, _)
                          in tracer.spans.items() if span == "instances.eval_expr"})
    finally:
        tracer.uninstall()
    return calls


def test_one_traced_eval_expr_call_per_evaluation(tmp_path):
    """The interpreter recurses through a private name, so a traced pass
    counts one `instances.eval_expr` call per evaluation of a whole
    condition, however deep, as it did when conditions were closures.  The
    counts are the closure path's on the same calls; `random:12,3,10,7`
    nests `and`, `or` and `not` in its truth and realizer rules."""
    path = tmp_path / "t3.json"
    path.write_text(builtin_t3().to_json())
    calls = _traced_eval_expr_calls(
        [[command, spec] for spec in (str(path), "random:12,3,10,7")
         for command in ("run", "explore", "lint")])
    assert all("instances.eval_expr" not in by_caller for by_caller in calls)
    assert calls == [
        {"oracle.truth": 4}, {"oracle.truth": 22}, {"oracle.truth": 5},
        {"oracle.realize": 2, "oracle.truth": 2},
        {"oracle.realize": 2, "oracle.truth": 27},
        {"oracle.realize": 2, "oracle.truth": 2}]
