"""Command-line front-end: validate, run, explore and lint instances.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 budget
exhausted, 5 invariant or contract check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import engine
from .core import KspaceError
from .instances import (
    ARGMIN_MAX_POINTS,
    InstanceDoc,
    InstanceError,
    LoadedInstance,
    builtin_argmin,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from .oracle import ContractViolation, is_sound, realize

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_CHECK = 5


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise _CliFailure(EXIT_VALIDATION, f"bad {what} spec: {text!r}") from None


def resolve_instance(spec: str) -> LoadedInstance:
    """Builtin name (t3, argmin:<f>, cascade:<K>,<width>,<seed>,
    random:<n_atoms>,<max_level>,<n_rules>,<seed>) or a JSON file path."""
    try:
        if spec == "t3":
            return load_instance(builtin_t3())
        if spec.startswith("argmin:"):
            points = _parse_ints(spec[len("argmin:"):], "argmin")
            if not points or len(points) > ARGMIN_MAX_POINTS:
                raise _CliFailure(EXIT_VALIDATION,
                                  f"argmin needs 1..{ARGMIN_MAX_POINTS} values")
            return builtin_argmin(points)
        if spec.startswith("cascade:"):
            params = _parse_ints(spec[len("cascade:"):], "cascade")
            if len(params) != 3:
                raise _CliFailure(EXIT_VALIDATION,
                                  "cascade takes <depth>,<width>,<seed>")
            return load_instance(gen_cascade(*params))
        if spec.startswith("random:"):
            params = _parse_ints(spec[len("random:"):], "random")
            if len(params) != 4:
                raise _CliFailure(EXIT_VALIDATION,
                                  "random takes <n_atoms>,<max_level>,<n_rules>,<seed>")
            return load_instance(gen_random(*params))
    except InstanceError as exc:
        raise _CliFailure(EXIT_VALIDATION, str(exc)) from None
    try:
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {spec!r}: {exc}") from None
    try:
        return load_instance(InstanceDoc.from_json(text))
    except InstanceError as exc:
        raise _CliFailure(EXIT_VALIDATION, str(exc)) from None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(out)
        except OSError as exc:
            raise _CliFailure(EXIT_IO, f"cannot write {args.output!r}: {exc}") from None
    else:
        sys.stdout.write(out)


def cmd_validate(args) -> int:
    inst = resolve_instance(args.instance)
    summary = {
        "atoms": len(inst.universe),
        "levels": len(inst.universe.levels()),
        "truth_rules": inst.truth_rule_count,
        "realizer_rules": inst.realizer_rule_count,
        "initial": sorted(inst.initial),
    }
    _emit(args, {"valid": True, "summary": summary},
          [f"valid: {args.instance}"]
          + [f"  {key}: {value}" for key, value in summary.items()])
    return EXIT_OK


def cmd_run(args) -> int:
    inst = resolve_instance(args.instance)
    strategy = engine.make_strategy(args.strategy, seed=args.seed)
    try:
        trace, final = engine.run(inst.initial, inst.realizer, inst.valuation,
                                  strategy, args.fuel)
        exhausted = False
    except engine.FuelExhausted as exc:
        trace, final = exc.trace, exc.final
        exhausted = True
    records = [engine.step_record(inst.valuation, i, edge)
               for i, edge in enumerate(trace)]
    result = {
        "final_state": sorted(final),
        "is_prefixed": engine.is_prefixed(final, inst.realizer, inst.valuation),
        "is_sound": is_sound(inst.valuation, final),
        "steps": len(trace),
    }
    if inst.witness is not None and not exhausted:
        result["witness"] = inst.witness(final)
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    lines += [f"{key}: {json.dumps(value)}" for key, value in sorted(result.items())]
    if exhausted:
        lines.append(f"fuel_exhausted: true (fuel={args.fuel})")
        result["fuel_exhausted"] = True
    _emit(args, {"trace": records, "result": result}, lines)
    return EXIT_BUDGET if exhausted else EXIT_OK


def _explore(args, inst: LoadedInstance) -> engine.ReductionTree:
    try:
        return engine.explore_tree(
            inst.initial, inst.realizer, inst.valuation,
            fuel_depth=args.max_depth, max_nodes=args.max_nodes,
            check_lemmas=args.check_lemmas)
    except engine.BudgetExceeded as exc:
        raise _CliFailure(
            EXIT_BUDGET,
            f"{exc} (branch prefix: {[sorted(s) for s in exc.branch]})") from None


def cmd_explore(args) -> int:
    inst = resolve_instance(args.instance)
    tree = _explore(args, inst)
    stats = {
        "node_count": tree.node_count,
        "edge_count": tree.edge_count,
        "max_depth": tree.max_depth,
        "distinct_state_count": tree.distinct_state_count,
        "normal_forms": sorted(sorted(n) for n in tree.normal_forms),
        "edges_checked": tree.edges_checked,
        "check_failures": [
            {"source": sorted(edge.source), "chosen": sorted(edge.chosen),
             "check": name}
            for edge, name in tree.check_failures],
    }
    lines = [f"node_count: {stats['node_count']}",
             f"edge_count: {stats['edge_count']}",
             f"max_depth: {stats['max_depth']}",
             f"distinct_state_count: {stats['distinct_state_count']}",
             f"normal_forms: {stats['normal_forms']}",
             f"edges_checked: {stats['edges_checked']}",
             f"check_failures: {len(stats['check_failures'])}"]
    for failure in stats["check_failures"]:
        lines.append(f"  FAIL {failure['check']} at edge "
                     f"{failure['source']} + {failure['chosen']}")
    _emit(args, stats, lines)
    return EXIT_CHECK if stats["check_failures"] else EXIT_OK


def cmd_lint(args) -> int:
    inst = resolve_instance(args.instance)
    tree = _explore(args, inst)
    violations = []
    for state in sorted(tree.states, key=sorted):
        try:
            realize(inst.realizer, inst.valuation, state, mode="strict")
        except ContractViolation as exc:
            violations.append({"state": sorted(state), "atom": exc.atom_id,
                               "clause": exc.clause})
    lines = [f"states_checked: {tree.distinct_state_count}",
             f"violations: {len(violations)}"]
    for item in violations:
        lines.append(f"  VIOLATION {item['atom']} ({item['clause']}) "
                     f"in state {item['state']}")
    _emit(args, {"states_checked": tree.distinct_state_count,
                 "violations": violations}, lines)
    return EXIT_CHECK if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kspace",
        description="Reduction engine for stratified knowledge states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance",
                       help="instance file path or builtin spec "
                            "(t3 | argmin:<f> | cascade:<K>,<w>,<seed> | "
                            "random:<atoms>,<maxlvl>,<rules>,<seed>)")
        p.add_argument("--output", default=None, help="write output to a file")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("validate", help="load and validate an instance")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="reduce with a deterministic strategy")
    common(p)
    p.add_argument("--strategy", choices=engine.STRATEGY_NAMES,
                   default="lowest-level-first")
    p.add_argument("--fuel", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    for name, func in (("explore", cmd_explore), ("lint", cmd_lint)):
        p = sub.add_parser(name, help=f"{name} the full reduction tree")
        common(p)
        p.add_argument("--max-depth", type=int, default=10_000)
        p.add_argument("--max-nodes", type=int, default=1_000_000)
        p.add_argument("--no-check-lemmas", dest="check_lemmas",
                       action="store_false", default=True)
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except KspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
