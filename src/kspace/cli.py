"""Command-line front-end: validate, run, explore and lint instances.

Exit codes: 0 success; 2 validation error (any other `KspaceError`); 3 I/O
error (`OSError`); 4 budget exhausted (`run` fuel; `explore`/`lint` depth
budget, node budget or candidate cap; proposal cap); 5 invariant or contract
check failure.  `EXIT_CODES` maps each failure to its code; `main` is the only
place that applies it.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from typing import Optional

from . import engine
from .core import KspaceError
from .instances import (
    InstanceDoc,
    InstanceError,
    LoadedInstance,
    builtin_argmin,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from .oracle import ProposalCapExceeded, TruthMemo, is_sound

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_CHECK = 5

# exception class -> exit code, most specific first; the first match wins
EXIT_CODES = (
    (engine.BudgetExceeded, EXIT_BUDGET),
    (engine.CandidateExplosion, EXIT_BUDGET),
    (ProposalCapExceeded, EXIT_BUDGET),
    (OSError, EXIT_IO),
    (KspaceError, EXIT_VALIDATION),
)


# a builtin-spec field or an integer flag: ASCII digits, an optional minus
_INT_FIELD = re.compile(r"-?[0-9]+")


def _int(text: str) -> int:
    """`int(text)` for a text matching `_INT_FIELD`; anything else raises
    ValueError, which argparse reports as an invalid value."""
    if not _INT_FIELD.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)  # ValueError past the int-to-str digit limit


# argparse names the type in its error from `__name__`: "invalid int value"
_int.__name__ = "int"


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [_int(part) for part in text.split(",")]
    except ValueError:
        raise InstanceError(f"bad {what} spec: {text!r}") from None


def _open(path: str, mode: str, **kwargs):
    """`open(path, mode, **kwargs)`.  A path the OS cannot take (a NUL byte,
    or a character the file system encoding cannot encode, such as a lone
    surrogate) raises OSError naming the path, as a missing file does,
    where `open` raises ValueError."""
    try:
        return open(path, mode, **kwargs)
    except ValueError as exc:  # UnicodeEncodeError among them
        raise OSError(f"cannot open {path!r}: {exc}") from None


def _read_text(path: str) -> str:
    """The file's text as `open(path, encoding="utf-8").read()` gives it:
    strict UTF-8, with each "\r\n" and each other "\r" read as "\n".  The
    file is read in one unbuffered call and decoded in one."""
    with _open(path, "rb", buffering=0) as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path} is not UTF-8: {exc.reason} at byte "
                            f"{exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def resolve_instance(spec: str) -> LoadedInstance:
    """Builtin name (t3, argmin:<f>, cascade:<K>,<width>,<seed>,
    random:<n_atoms>,<max_level>,<n_rules>,<seed>) or a JSON file path."""
    if spec == "t3":
        return load_instance(builtin_t3())
    if spec.startswith("argmin:"):
        return builtin_argmin(_parse_ints(spec[len("argmin:"):], "argmin"))
    if spec.startswith("cascade:"):
        params = _parse_ints(spec[len("cascade:"):], "cascade")
        if len(params) != 3:
            raise InstanceError("cascade takes <depth>,<width>,<seed>")
        return load_instance(gen_cascade(*params))
    if spec.startswith("random:"):
        params = _parse_ints(spec[len("random:"):], "random")
        if len(params) != 4:
            raise InstanceError("random takes <n_atoms>,<max_level>,<n_rules>,<seed>")
        return load_instance(gen_random(*params))
    return load_instance(InstanceDoc.from_json(_read_text(spec)))


_encode_str = json.encoder.encode_basestring_ascii


def _to_json(value, indent: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`, byte for byte, for
    dicts with str keys, lists, str, int, bool and None (exact types; any
    other raises `TypeError`).  `json.dumps` with an indent runs the
    pure-Python encoder; this writer encodes each string in C, and a list
    of strings in one `join`."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return repr(value)
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        separator = "," + inner
        try:  # a list of strings, in one join
            body = separator.join(map(_encode_str, value))
        except TypeError:  # an item that is not a string
            body = separator.join([_to_json(item, inner) for item in value])
        return "[" + inner + body + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        body = ("," + inner).join([_encode_str(key) + ": " + _to_json(value[key], inner)
                                   for key in sorted(value)])
        return "{" + inner + body + indent + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        out = _to_json(payload) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    # a path in the output holds the bytes the file system encoding could
    # not decode as lone surrogates; "surrogateescape" gives them back
    if args.output:
        with _open(args.output, "w", encoding="utf-8",
                   errors="surrogateescape") as handle:
            handle.write(out)
        return
    try:
        sys.stdout.write(out)
    except UnicodeEncodeError:  # raised before anything was written
        sys.stdout.flush()
        sys.stdout.buffer.write(out.encode(sys.stdout.encoding, "surrogateescape"))


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
    memo = TruthMemo(inst.universe)
    try:
        trace, final = engine.run(inst.initial, inst.realizer, inst.valuation,
                                  strategy, args.fuel, memo)
        exhausted = False
    except engine.FuelExhausted as exc:
        trace, final = exc.trace, exc.final
        exhausted = True
    # The run's last state is `final`, and the records are built last to
    # first, so the memo walks back over the run's own steps.
    prefixed = engine.is_prefixed(final, inst.realizer, inst.valuation, memo)
    records = [engine.step_record(inst.valuation, i, trace[i], memo)
               for i in reversed(range(len(trace)))][::-1]
    result = {
        "final_state": sorted(final),
        "is_prefixed": prefixed,
        # the final state is the last step's target, whose soundness the
        # last record holds
        "is_sound": (records[-1]["sound_after"] if records
                     else is_sound(inst.valuation, final, memo)),
        "steps": len(trace),
    }
    if inst.witness is not None and not exhausted:
        result["witness"] = inst.witness(final)
    lines = []
    if args.format == "text":
        lines = [json.dumps(rec, sort_keys=True) for rec in records]
        lines += [f"{key}: {json.dumps(value)}"
                  for key, value in sorted(result.items())]
        if exhausted:
            lines.append(f"fuel_exhausted: true (fuel={args.fuel})")
    if exhausted:
        result["fuel_exhausted"] = True
    _emit(args, {"trace": records, "result": result}, lines)
    return EXIT_BUDGET if exhausted else EXIT_OK


def _explore(args, inst: LoadedInstance,
             check_lemmas: bool) -> engine.ReductionTree:
    return engine.explore_tree(
        inst.initial, inst.realizer, inst.valuation,
        fuel_depth=args.max_depth, max_nodes=args.max_nodes,
        check_lemmas=check_lemmas)


def cmd_explore(args) -> int:
    inst = resolve_instance(args.instance)
    tree = _explore(args, inst, args.check_lemmas)
    stats = {
        "node_count": tree.node_count,
        "edge_count": tree.edge_count,
        "max_depth": tree.max_depth,
        "distinct_state_count": tree.distinct_state_count,
        "normal_forms": sorted(sorted(n) for n in tree.normal_forms),
        "edges_checked": tree.edge_count if args.check_lemmas else 0,
    }
    lines = [f"{key}: {value}" for key, value in stats.items()]
    stats["check_failures"] = [
        {"source": sorted(edge.source), "chosen": sorted(edge.chosen),
         "check": name}
        for edge, name in tree.check_failures]
    lines.append(f"check_failures: {len(stats['check_failures'])}")
    for failure in stats["check_failures"]:
        lines.append(f"  FAIL {failure['check']} at edge "
                     f"{failure['source']} + {failure['chosen']}")
    _emit(args, stats, lines)
    return EXIT_CHECK if stats["check_failures"] else EXIT_OK


def cmd_lint(args) -> int:
    inst = resolve_instance(args.instance)
    # the contract violations the explorer records; no lemma checks run
    tree = _explore(args, inst, check_lemmas=False)
    violations = [{"state": sorted(state), "atom": atom_id, "clause": clause}
                  for state, (atom_id, clause)
                  in sorted(tree.violations.items(), key=lambda kv: sorted(kv[0]))]
    lines = [f"states_checked: {tree.distinct_state_count}",
             f"violations: {len(violations)}"]
    for item in violations:
        lines.append(f"  VIOLATION {item['atom']} ({item['clause']}) "
                     f"in state {item['state']}")
    _emit(args, {"states_checked": tree.distinct_state_count,
                 "violations": violations}, lines)
    return EXIT_CHECK if violations else EXIT_OK


def positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser, and each command's table for the direct parse
    (see `_command_table`), by command name."""
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
    p.add_argument("--fuel", type=positive_int, default=1000)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=cmd_run)

    for name, func in (("explore", cmd_explore), ("lint", cmd_lint)):
        p = sub.add_parser(name, help=f"{name} the full reduction tree")
        common(p)
        p.add_argument("--max-depth", type=non_negative_int,
                       default=engine.DEPTH_BUDGET)
        p.add_argument("--max-nodes", type=positive_int,
                       default=engine.NODE_BUDGET)
        p.set_defaults(func=func)
        if name == "explore":
            p.add_argument("--no-check-lemmas", dest="check_lemmas",
                           action="store_false", default=True)

    return parser, {name: _command_table(name, p) for name, p in sub.choices.items()}


def _command_table(name: str, parser: argparse.ArgumentParser) -> tuple:
    """(defaults, options, positional) of one command's parser, read off the
    actions argparse built for it: the namespace a command line with no
    options fills before its positional (every dest's default, the parser's
    `set_defaults` and `command`), each option string the direct parse takes
    to its action, and the one positional's action.  Only plain `store`
    actions (one value) and `store_const` ones (`store_false` among them)
    enter `options`; `-h` and any other kind stay with argparse.  argparse
    keeps a parser's actions and `set_defaults` in `_actions` and
    `_defaults`."""
    defaults = {"command": name}
    options, positionals = {}, []
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if not action.option_strings:
            positionals.append(action)
        elif (isinstance(action, argparse._StoreAction) and action.nargs is None
              or isinstance(action, argparse._StoreConstAction)):
            options.update(dict.fromkeys(action.option_strings, action))
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    (positional,) = positionals
    return defaults, options, positional


# built once: building it costs about as much as a small explore call
PARSER, _COMMANDS = build_parser()


def _parse_direct(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace `PARSER.parse_args(argv)` returns, for a well-formed
    command line; None for any other.

    A line is well-formed when it starts with a command name, every word
    that starts with `-` is one of that command's full option strings (so
    no `=`, abbreviation, `--` or `-h`), each option that takes a value is
    followed by one that does not start with `-` and that the option's
    `type` converts and its `choices` admit, and exactly one word, which
    does not start with `-`, is left for the positional.  On such a line
    argparse takes the same steps: each option stores its converted value,
    the last one given wins, and the defaults fill the rest."""
    table = _COMMANDS.get(argv[0]) if argv else None
    if table is None:
        return None
    defaults, options, positional = table
    values = dict(defaults)
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if positional is None:  # a second positional
                return None
            action, positional = positional, None
        else:
            action = options.get(word)
            if action is None:
                return None
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            word = next(words, "-")
            if word[:1] == "-":  # no value, or one argparse reads otherwise
                return None
        try:
            value = action.type(word) if action.type is not None else word
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if positional is not None:  # no positional
        return None
    return argparse.Namespace(**values)


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    """`PARSER.parse_args(argv)`.  A well-formed command line (see
    `_parse_direct`) is parsed directly from the table `build_parser` reads
    off each command's parser; any other line (no command, an unknown one,
    `-h`, an abbreviation, `--flag=value`, `--`, a value argparse rejects)
    goes to `PARSER`, so every usage line, help text, error message and
    exit code is argparse's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_direct(argv)
    return args if args is not None else PARSER.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    # What a command builds (compiled conditions, views, frozensets, trees)
    # holds no reference cycles, so reference counting frees it, and the
    # cyclic collector is paused for the command, as Mercurial's `util.nogc`
    # does.
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse_args(argv)
        try:
            return args.func(args)
        except (KspaceError, OSError) as exc:
            message = str(exc)
            if isinstance(exc, engine.BudgetExceeded):
                message += f" (branch prefix: {[sorted(s) for s in exc.branch]})"
            print(f"error: {message}", file=sys.stderr)
            return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    finally:
        if gc_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
