"""First-order mutation testing of named ``troupes`` functions (stdlib only).

    python tests/mutate.py --work DIR [--tests PATH]... [--verify ARGS]...
                           MODULE:FUNCTION...
    python tests/mutate.py --list MODULE:FUNCTION...

Run from the root of a source checkout.  ``MODULE:FUNCTION`` names a function
in ``src/troupes/MODULE.py``, a method as ``Class.method``: for example
``trees:_decreasing_tree`` or ``troupe:WeightedTroupe._weight``.

Each mutant changes one place in one named function, by one of these
mutations, parsed and written back with the ``ast`` module:

- a binary ``+``, ``-`` or ``*`` (augmented assignments too) becomes each of
  the other two, and a ``**`` becomes ``*``;
- a comparison flips: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``is`` and ``is not``, ``in`` and ``not in`` trade places;
- an integer constant grows by 1;
- a ``not`` or a unary ``-`` is dropped.

The source tree is copied once into ``DIR`` (``src/``, ``tests/`` and
``pyproject.toml``), and the mutants run one at a time, each module written
into the copy in turn.  A mutant is first run through ``verify`` on each ``--verify``
argument string (by default the three cases below), and every outcome is
named: ``pass`` (exit 0 and a ``PASS`` line), ``FAIL`` (exit 1 with a
``FAIL`` line), ``traceback`` (an uncaught exception, whatever the exit
status), ``exit N`` or ``timeout``.  Then ``pytest -x`` runs the ``--tests``
paths, and the first failing test is named.  A mutant is killed when a
verify case does not pass or a test fails.  Every child process runs with
``PYTHONDONTWRITEBYTECODE`` set, in its own process group, under a timeout
and an address-space limit.

Before any mutant, the copy with each named module written back unmutated
must pass every verify case and every test; otherwise the run stops.

Mutants in :data:`EQUIVALENT` behave like the original on every input, each
for the reason given there; they are reported as ``equivalent`` and left out
of the score, and one that is killed anyway is flagged.  An entry of a named
function that matches none of its mutants (its line has changed) stops the
script with exit status 1, before any mutant runs.

``--list`` prints the mutants, each one in :data:`EQUIVALENT` tagged
``[equivalent]``, and runs nothing; it needs no ``--work``.  The script is
not a test module: pytest does not collect it.  CI runs ``--list`` on every
function :data:`EQUIVALENT` names, so a change that orphans an entry fails.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per child: seconds for one verify case, seconds for the test run, and
# bytes of address space, so a mutant that loops or grows without end stops
VERIFY_TIMEOUT, TEST_TIMEOUT, MEMORY_LIMIT = 60, 900, 2 << 30

DEFAULT_VERIFY = (
    "--troupe all --n 6 --order 8",
    "--troupe random --seed 3 --num-colors 2 --n 5 --order 6",
    "--troupe colorcount:1 --num-colors 2 --n 5 --order 5",
)

# (function, original line, mutated line) -> why the mutant is equivalent.
# The lines are as ``ast.unparse`` writes them (a compound statement is its
# header), and a key covers every place in the function where they occur.
_PEAK_TEST = "if 0 < i < last and word[i - 1] < value > word[i + 1]:"
_RANDOM_TABLE = "table = random_branch_table(args.seed, max(args.n - 1, 1), args.num_colors)"
_SERIES_TABLE = "for key, weight in random_branch_table(args.seed, args.order - 1).items():"
_PHI_CHILD_CHECK = ("if left is not None and (not (0 <= left < m and labels[left] < label)) or "
                    "(right is not None and (not (0 <= right < m and labels[right] < label))):")

EQUIVALENT: dict[tuple[str, str, str], str] = {
    ("bijections:psi_inverse", "labels = [0] * m", "labels = [1] * m"):
        "only a vertex the postorder walk misses keeps its first label; the "
        "walk of phi_inverse from the root misses the same vertices, reads "
        "none of their labels and rejects the tree as having unreachable ones",
    ("bijections:_read_tree", "vertex = [-1] * n", "vertex = [-2] * n"):
        "any negative value marks a label not yet met",
    ("bijections:_read_tree", _PHI_CHILD_CHECK,
     _PHI_CHILD_CHECK.replace("labels[left] < label", "labels[left] <= label")):
        "a child with its parent's label repeats a label, which the walk "
        "rejects with ValueError on entering the child",
    ("bijections:_read_tree", _PHI_CHILD_CHECK,
     _PHI_CHILD_CHECK.replace("labels[right] < label", "labels[right] <= label")):
        "as for the left child",
    ("bijections:PhiInput.validate", "if not set(sigma).issuperset(range(1, n + 1)):",
     "if not set(sigma).issuperset(range(1, n * 1)):"):
        "the first entry was checked to be n, so n entries that cover 1..n-1 "
        "cover 1..n",
    ("bijections:_read_runs", "word = [0] * (n + 1)", "word = [1] * (n + 1)"):
        "the runs cover 1..n, so every label's slot is written before the word "
        "is returned, and no caller reads slot 0",
    ("bijections:_iter_inputs", "color = (0, *word).__getitem__",
     "color = (1, *word).__getitem__"):
        "the skeletons' elements are 1..n, so slot 0 is never read",
    ("trees:iter_dbpt_word", "box, colors = (word[-1], (0, *word))",
     "box, colors = (word[-1], (1, *word))"):
        "the labels are 1..n-1, so slot 0 is never read",
    ("peaks:_regions", "while depths and depths[-1] > -value:",
     "while depths and depths[-1] >= -value:"):
        "the entries are distinct, so no kept peak is exactly as high as a new one",
    ("cli:cmd_verify", "failures += 1", "failures += 2"):
        "failures is only compared with 0, and each step adds a positive count",
    ("cli:cmd_verify", _RANDOM_TABLE, _RANDOM_TABLE.replace("args.n - 1", "args.n + 1")):
        "the table draws its weights size by size from the smallest, so a larger "
        "max_size leaves every smaller size's weights as they were; the word lines "
        "read branches of at most n - 1 vertices, and the series line, which then "
        "reads some constant words' branches from this table, prints only its "
        "verdict, which holds for any weights",
    ("cli:cmd_verify", _RANDOM_TABLE, _RANDOM_TABLE.replace("args.n - 1", "args.n * 1")):
        "as for args.n + 1",
    ("cli:cmd_verify", _RANDOM_TABLE, _RANDOM_TABLE.replace("args.n - 1, 1", "args.n - 1, 2")):
        "as for args.n + 1: only at --n 1 and 2 does the table grow, by one size",
    ("cli:cmd_verify", _SERIES_TABLE, _SERIES_TABLE.replace("args.order - 1", "args.order + 1")):
        "the series line reads constant words of at most --order letters, so "
        "branches of at most order - 1 vertices; the larger ones are never read",
    ("cli:cmd_verify", _SERIES_TABLE, _SERIES_TABLE.replace("args.order - 1", "args.order * 1")):
        "as for args.order + 1",
    ("peaks:_regions", _PEAK_TEST,
     _PEAK_TEST.replace("word[i - 1] < value", "word[i - 1] <= value")):
        "the entries are distinct, so no neighbour is exactly as high as the value",
    ("peaks:_regions", _PEAK_TEST,
     _PEAK_TEST.replace("value > word[i + 1]", "value >= word[i + 1]")):
        "as for the left neighbour",
}


_SWAPS = {ast.Add: (ast.Sub, ast.Mult), ast.Sub: (ast.Add, ast.Mult),
          ast.Mult: (ast.Add, ast.Sub), ast.Pow: (ast.Mult,)}
_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.In: ast.NotIn, ast.NotIn: ast.In}


def _variants(node: ast.AST):
    """The first-order mutations of one node, as new nodes."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        for op in _SWAPS[type(node.op)]:
            yield _with(node, op=op())
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = _FLIPS[type(op)]()
            yield _with(node, ops=ops)
    elif (isinstance(node, ast.Constant) and type(node.value) is int):
        yield _with(node, value=node.value + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        yield node.operand


def _with(node: ast.AST, **fields) -> ast.AST:
    new = copy.copy(node)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


class _Mutator(ast.NodeTransformer):
    """Counts the mutation sites of a subtree in postorder and applies the
    one numbered ``target``, if any, recording its source line."""

    def __init__(self, target: int = -1):
        self.target, self.count, self.line = target, 0, None

    def visit(self, node):
        node = self.generic_visit(node)
        for variant in _variants(node):
            if self.count == self.target:
                self.line = getattr(node, "lineno", 0)
                node = variant
            self.count += 1
        return node


def _function(module: ast.Module, qualname: str) -> ast.FunctionDef:
    scope = module.body
    *outer, name = qualname.split(".")
    for part in outer:
        scope = next(n for n in scope if isinstance(n, ast.ClassDef) and n.name == part).body
    for node in scope:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    raise SystemExit(f"error: no function {qualname!r}")


def _mutant(source: str, qualname: str, target: int) -> tuple[str, int]:
    """The module source with mutation ``target`` of the function applied,
    and the source line of the mutated node."""
    module = ast.parse(source)
    fn = _function(module, qualname)
    mutator = _Mutator(target)
    fn.body = [mutator.visit(stmt) for stmt in fn.body]
    return ast.unparse(module) + "\n", mutator.line


def _count(source: str, qualname: str) -> int:
    mutator = _Mutator()
    for stmt in _function(ast.parse(source), qualname).body:
        mutator.visit(stmt)
    return mutator.count


def _run(cmd: list[str], cwd: Path, timeout: float) -> tuple[int | None, str, str]:
    """Exit status (None on timeout), stdout and stderr of one child, whose
    whole process group is killed on timeout."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=limit)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err


def _verify_outcome(code: int | None, out: str, err: str) -> str:
    if code is None:
        return "timeout"
    if "Traceback" in err:
        return "traceback"
    lines = out.splitlines()
    if code == 0 and lines and lines[-1].startswith("PASS"):
        return "pass"
    if code == 1 and any(line.startswith("FAIL") for line in lines):
        return "FAIL"
    return f"exit {code}"


def _first_failure(code: int | None, out: str) -> str | None:
    """The first test pytest reports failed, or None when all passed."""
    if code == 0:
        return None
    if code is None:
        return "timeout"
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"pytest exit {code}"


def _check(work: Path, args) -> tuple[list[str], str | None]:
    verify = [_verify_outcome(*_run([sys.executable, "-m", "troupes", "verify", *case.split()],
                                    work, VERIFY_TIMEOUT))
              for case in args.verify]
    code, out, _ = _run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                         "-p", "no:cacheprovider", *args.tests], work, TEST_TIMEOUT)
    return verify, _first_failure(code, out)


def _killed(verify: list[str], failed: str | None) -> bool:
    return failed is not None or any(outcome != "pass" for outcome in verify)


def _copy_tree(work: Path) -> None:
    if work.exists():
        shutil.rmtree(work)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", help="MODULE:FUNCTION")
    parser.add_argument("--work", type=Path,
                        help="scratch directory for the copy (emptied first)")
    parser.add_argument("--tests", action="append",
                        help="a pytest path or node id, repeatable (default: tests)")
    parser.add_argument("--verify", action="append",
                        help="a verify argument string, repeatable (default: three cases)")
    parser.add_argument("--list", action="store_true", help="list the mutants and stop")
    args = parser.parse_args(argv)
    if args.work is None and not args.list:
        parser.error("--work is required to run the mutants")
    args.tests = args.tests or ["tests"]
    args.verify = args.verify or list(DEFAULT_VERIFY)

    sources, baseline, mutants = {}, {}, []
    for spec in args.functions:
        module, _, qualname = spec.partition(":")
        path = ROOT / "src" / "troupes" / f"{module}.py"
        if not qualname or not path.is_file():
            parser.error(f"expected MODULE:FUNCTION under src/troupes, got {spec!r}")
        sources[module] = source = path.read_text()
        # the module as the mutants write it, with no mutation
        baseline[module] = base = ast.unparse(ast.parse(source)) + "\n"
        for target in range(_count(source, qualname)):
            text, line = _mutant(source, qualname, target)
            before, after = next((a.strip(), b.strip()) for a, b
                                 in zip(base.splitlines(), text.splitlines()) if a != b)
            mutants.append((spec, module, qualname, target, (line, before, after)))
    found = {(spec, before, after) for spec, _, _, _, (_, before, after) in mutants}
    orphans = [key for key in EQUIVALENT if key[0] in args.functions and key not in found]
    for spec, before, after in orphans:
        print(f"error: EQUIVALENT entry matches no mutant: {spec}: {before}  ->  {after}",
              file=sys.stderr)
    if orphans:
        return 1
    if args.list:
        try:
            for spec, _, _, _, (line, before, after) in mutants:
                tag = "  [equivalent]" if (spec, before, after) in EQUIVALENT else ""
                print(f"{spec} line {line}: {before}  ->  {after}{tag}")
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed the pipe, as ``| head`` does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

    work = args.work
    _copy_tree(work)
    for module, text in baseline.items():
        (work / "src" / "troupes" / f"{module}.py").write_text(text)
    verify, failed = _check(work, args)
    if _killed(verify, failed):
        print(f"error: the unmutated copy does not pass: verify {verify}, first failed test "
              f"{failed}", file=sys.stderr)
        return 2

    results = []
    for spec, module, qualname, target, (line, before, after) in mutants:
        file = work / "src" / "troupes" / f"{module}.py"
        file.write_text(_mutant(sources[module], qualname, target)[0])
        try:
            verify, failed = _check(work, args)
        finally:
            file.write_text(baseline[module])
        results.append((verify, failed))
        killed = _killed(verify, failed)
        reason = EQUIVALENT.get((spec, before, after))
        if reason is not None:
            status = ("KILLED, but listed as equivalent" if killed else "equivalent") \
                + f" ({reason})"
        else:
            status = "killed" if killed else "survived"
        print(f"{status}: {spec} line {line}: {before}  ->  {after}\n"
              f"    verify: {', '.join(verify)}; first failed test: {failed or 'none'}",
              flush=True)

    print("\nscore (killed / mutants not listed as equivalent):")
    for spec in args.functions:
        mine = [(m, results[i]) for i, m in enumerate(mutants) if m[0] == spec]
        counted = [(m, r) for m, r in mine if (spec, m[4][1], m[4][2]) not in EQUIVALENT]
        killed = sum(1 for _, result in counted if _killed(*result))
        by_verify = sum(1 for _, (verify, _) in counted if _killed(verify, None))
        print(f"  {spec}: {killed}/{len(counted)} killed ({by_verify} by verify), "
              f"{len(mine) - len(counted)} equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
