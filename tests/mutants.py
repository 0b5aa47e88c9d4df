"""Hand mutants of the program, each with the tests that must kill it.

Run from the repository root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies `src/`, `tests/`, `bench/` and
`pyproject.toml` to a temporary directory (`pyproject.toml` puts the
`src/` beside it on pytest's path), swaps the mutant's snippet, which
must occur exactly once in its file, for its replacement, and runs
pytest there on that mutant's tests only, stopping at the first failure.
`bench/` is copied and never edited.  A mutant is killed when its tests
fail and survives when they pass.  The same tests first run on an
unmutated copy, where they must pass, so a kill is the mutant's doing.

Exit status: 0 when every mutant run is killed, 1 when one survives,
and 2 for an unknown name, a snippet that does not occur exactly once,
an unmutated copy that fails or a pytest run that ends in an error.
The script needs nothing beyond the standard library and pytest; pytest
does not collect it (its name does not start with `test_`), and
`tests/test_mutants.py` checks the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")

ORACLE = "src/kspace/oracle.py"
INSTANCES = "src/kspace/instances.py"
CLI = "src/kspace/cli.py"

MEMO_KEEPS = ("tests/test_truth_memo.py::"
              "test_memo_keeps_a_verdict_while_the_state_below_its_level_is_unchanged")
MEMO_CARRIED = ("tests/test_truth_memo.py::"
                "test_carried_views_answer_as_fresh_views_of_the_new_state")
MEMO_AGREES = "tests/test_truth_memo.py::test_memo_and_memo_free_calls_agree"
RUN_COUNTS = ("tests/test_truth_memo.py::"
              "test_run_evaluates_each_atom_once_per_state_below_its_level")
TRUTH_VIEW = ("tests/test_oracle.py::TestTruth::"
              "test_procedure_gets_the_id_and_a_view_capped_at_its_level")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = (
    # the truth memo: views kept on a move, verdict reads
    Mutant("memo-keeps-every-view", ORACLE,
           "in self._views.items() if level <= low}",
           "in self._views.items()}",
           (MEMO_CARRIED, MEMO_KEEPS)),
    Mutant("memo-keeps-one-level-more", ORACLE,
           "if level <= low}",
           "if level <= low + 1}",
           (MEMO_CARRIED, MEMO_KEEPS)),
    Mutant("realize-takes-the-memo-before-the-answered-clause", ORACLE,
           "        if view.answered(question_of[atom_id]):\n"
           "            dropped.append((atom_id, CLAUSE_ANSWERED))\n"
           "            continue\n"
           "        if views is None:\n"
           "            views = {} if memo is None else memo.at(members)\n",
           "        if views is None:\n"
           "            views = {} if memo is None else memo.at(members)\n"
           "        if view.answered(question_of[atom_id]):\n"
           "            dropped.append((atom_id, CLAUSE_ANSWERED))\n"
           "            continue\n",
           (MEMO_AGREES, MEMO_KEEPS)),
    Mutant("realize-skips-the-hit-check", ORACLE,
           "        verdict = None if held is None else held.verdicts.get(atom_id)\n"
           "        if verdict is None:\n"
           "            verdict = truth(v, atom_id, members, views)\n"
           "        if verdict:\n",
           "        verdict = truth(v, atom_id, members, views)\n"
           "        if verdict:\n",
           (MEMO_KEEPS, RUN_COUNTS)),
    Mutant("is-sound-skips-the-hit-check", ORACLE,
           "        verdict = None if held is None else held.verdicts.get(atom_id)\n"
           "        if verdict is None:\n"
           "            verdict = truth(v, atom_id, members, views)\n"
           "        if not verdict:\n",
           "        verdict = truth(v, atom_id, members, views)\n"
           "        if not verdict:\n",
           (MEMO_KEEPS, RUN_COUNTS)),
    # the level mask of a truth verdict
    Mutant("truth-masks-one-level-high", ORACLE,
           "StateView(v.universe, members, level_cap=level)",
           "StateView(v.universe, members, level_cap=level + 1)",
           (TRUTH_VIEW,)),
    Mutant("truth-gives-an-unmasked-view", ORACLE,
           "StateView(v.universe, members, level_cap=level)",
           "StateView(v.universe, members, level_cap=None)",
           (TRUTH_VIEW,)),
    Mutant("argmin-takes-every-atom-for-level-0", INSTANCES,
           "        if level_of[atom_id] == 0:\n",
           "        if True:\n",
           ("tests/test_instances.py::TestArgmin::"
            "test_guess_is_true_iff_no_smaller_point_is_evaluated",)),
    # document load, condition evaluation and the rule compiler
    Mutant("eval-expr-recurses-through-its-public-name", INSTANCES,
           "            if not _eval(sub, view):\n",
           "            if not eval_expr(sub, view):\n",
           ("tests/test_bench_spans.py::test_one_traced_eval_expr_call_per_evaluation",)),
    Mutant("load-keeps-the-documents-propose-lists", INSTANCES,
           'proposals = tuple(rule["propose"])',
           'proposals = rule["propose"]',
           ("tests/test_instances.py::test_changing_a_loaded_document_changes_no_verdict",)),
    Mutant("rule-compiler-leaves-present-leaves-to-the-other-parts", INSTANCES,
           '                if key == "present":\n'
           "                    atoms.add(ref)\n"
           "                    sets[2 + negated].add(ref)\n"
           "                    continue\n",
           "",
           ("tests/test_rule_compiler.py::"
            "test_partition_is_the_top_level_leaves_and_the_other_parts_in_order",)),
    # the CLI's file read and output
    Mutant("read-skips-the-carriage-return-step", CLI,
           '    if "\\r" in text:\n',
           "    if False:\n",
           ("tests/test_cli.py::test_file_reads_as_in_text_mode",)),
    Mutant("output-file-written-strictly", CLI,
           'errors="surrogateescape") as handle:',
           'errors="strict") as handle:',
           ("tests/test_cli.py::test_output_file_gives_back_an_undecodable_path",)),
    Mutant("stdout-without-its-surrogate-fallback", CLI,
           "    try:\n"
           "        sys.stdout.write(out)\n"
           "    except UnicodeEncodeError:  # raised before anything was written\n"
           "        sys.stdout.flush()\n"
           '        sys.stdout.buffer.write(out.encode(sys.stdout.encoding, "surrogateescape"))\n',
           "    sys.stdout.write(out)\n",
           ("tests/test_cli.py::test_strict_stdout_gives_back_an_undecodable_path",)),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=skip)
        else:
            shutil.copy2(source, dest / name)


def _pytest(tests: tuple[str, ...], mutant: Mutant | None = None) -> int:
    """The exit code of pytest on `tests` in a fresh copy, mutated by
    `mutant` unless it is None."""
    with tempfile.TemporaryDirectory(prefix="kspace-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if mutant is not None:
            path = copy / mutant.path
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.snippet, mutant.replacement),
                            encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or list(MUTANTS)
    for mutant in chosen:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)
        if count != 1:
            print(f"{mutant.name}: its snippet occurs {count} times in "
                  f"{mutant.path}", file=sys.stderr)
            return 2
    tests = tuple(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
    code = _pytest(tests)
    if code != 0:
        print(f"the unmutated copy fails its tests (pytest exit {code})",
              file=sys.stderr)
        return 2
    survivors, errors = [], []
    for mutant in chosen:
        start = time.perf_counter()
        code = _pytest(mutant.tests, mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict:<10} {mutant.name} ({time.perf_counter() - start:.1f} s)",
              flush=True)
        if code == 0:
            survivors.append(mutant.name)
        elif code != 1:
            errors.append(mutant.name)
    print(f"{len(chosen)} mutants: {len(chosen) - len(survivors) - len(errors)} "
          f"killed, {len(survivors)} survived, {len(errors)} errors")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
