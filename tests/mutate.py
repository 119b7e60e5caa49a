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
- a ``not`` or a unary ``-`` is dropped;
- a slice bound that is written grows by 1 and shrinks by 1;
- ``and`` and ``or`` trade places;
- a call of ``min`` becomes one of ``max``, and the other way round.

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
must pass every verify case and every test; otherwise the run stops.  That
test run is timed, and each mutant's test run may take
:data:`TEST_TIMEOUT_FACTOR` times as long, but never less than
:data:`TEST_TIMEOUT_FLOOR` seconds, before it counts as a timeout.

Mutants in :data:`EQUIVALENT` behave like the original on every input, each
for the reason given there; they are reported as ``equivalent`` and left out
of the score, and one that is killed anyway is flagged.  An entry of a named
function that matches none of its mutants (its line has changed) stops the
script with exit status 1, before any mutant runs.

``--list`` prints the mutants, each one in :data:`EQUIVALENT` tagged
``[equivalent]`` and each whose line pair recurs in its function with its
occurrence number, and runs nothing; it needs no ``--work``.  The script is
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per child: seconds for one verify case, seconds for the unmutated test run,
# and bytes of address space, so a mutant that loops or grows without end stops
VERIFY_TIMEOUT, BASELINE_TIMEOUT, MEMORY_LIMIT = 60, 900, 2 << 30
# a mutant's test run: this many times the unmutated run's seconds, at least the floor
TEST_TIMEOUT_FACTOR, TEST_TIMEOUT_FLOOR = 10, 60

DEFAULT_VERIFY = (
    "--troupe all --n 6 --order 8",
    "--troupe random --seed 3 --num-colors 2 --n 5 --order 6",
    "--troupe colorcount:1 --num-colors 2 --n 5 --order 5",
)

# (function, original line, mutated line) -> why the mutant is equivalent.
# The lines are as ``ast.unparse`` writes them (a compound statement is its
# header), and a key covers every place in the function where they occur.
# A fourth item k narrows the key to the k-th of those places, counted in the
# order ``--list`` prints the mutants.  Each line is written once, as 3.11
# unparses it, and passed through :func:`_unparsed`, since ``ast.unparse``
# differs between versions (3.10 puts a tuple target in parentheses).
_PEAK_TEST = "if 0 < i < last and word[i - 1] < value > word[i + 1]:"
_RANDOM_TABLE = "table = random_branch_table(args.seed, max(args.n - 1, 1), args.num_colors)"
_SERIES_TABLE = "for key, weight in random_branch_table(args.seed, args.order - 1).items():"
_GROW_CROSS = "if klass != 'all' and any((b[0] < last < b[-1] for b in blocks)):"
_GROW_MIN2 = ("if min2 and any((len(b) == 1 and (b[0] > last or k == n) for b in blocks "
              "if b is not target)):")
_ROOT_PHI = "phi = Series.one(n - 1, poly=b.is_poly_ring) + b.shift()"
_CONVOLVE_SIZE = "size = len(a) + len(b) - 1"
_RING_TOP = "return QPoly((coeffs.get(k, Fraction(0)) for k in range(top + 1)))"
_PHI_CHILD_CHECK = ("if left is not None and (not (0 <= left < m and labels[left] < label)) or "
                    "(right is not None and (not (0 <= right < m and labels[right] < label))):")


def _unparsed(line: str) -> str:
    """``line`` as this interpreter's ``ast.unparse`` writes it; a header
    such as ``for …:`` is parsed with a stub body."""
    stub = "\n    pass" if line.endswith(":") else ""
    return ast.unparse(ast.parse(line + stub)).split("\n", 1)[0]


EQUIVALENT: dict[tuple, str] = {(spec, _unparsed(before), _unparsed(after), *k): why
                                for (spec, before, after, *k), why in {
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
    ("bijections:PsiInput.validate", "for x in range(1, n + 1):",
     "for x in range(1, n + 2):"):
        "x = n + 1 is in no block, so it has no next element, and every "
        "element on the stack is at most n, so none is popped",
    ("bijections:PsiInput.validate", "for x in range(1, n + 1):",
     "for x in range(2, n + 1):"):
        "x = 1 only puts the second element a of 1's block at the bottom of the "
        "stack, so the scans differ only if a is not on top at its turn; then "
        "the entry above it is never popped in either scan, since the pending "
        "elements of 1's block sit above it until that block closes at n, "
        "which the same condition requires",
    ("series:_lagrange_root", "tops, dens = ([0], [1])", "tops, dens = ([0], [2])"):
        "the constant term is 0 whatever its denominator, and _build reduces "
        "the result's common denominator to normal form",
    ("series:Series.compose", "num: list = [0] * n", "num: list = [1] * n"):
        "Horner's steps multiply the start value by inner n times, and inner "
        "has no constant term, so it only adds terms of degree n and up, which "
        "truncation drops",
    ("series:Series.compose", "den = 1", "den = 2"):
        "the start value is 0 over either denominator, and each step reduces "
        "its sum to normal form",
    ("series:troupe_transform", _ROOT_PHI, _ROOT_PHI.replace("n - 1", "n + 1")):
        "phi is truncated to b.shift()'s order n, one more than needed; the "
        "root's coefficients up to t^(n-1) read phi's only up to t^(n-2), and "
        "compose truncates to b's order n",
    ("series:troupe_transform", _ROOT_PHI, _ROOT_PHI.replace("n - 1", "n * 1")):
        "as for n + 1",
    ("rings:_convolve", _CONVOLVE_SIZE, _CONVOLVE_SIZE.replace("- 1", "+ 1")):
        "a longer output only adds trailing int 0 entries: every caller with "
        "no n passes them to _make, which strips them, and every caller with "
        "an n passes one no greater than len(a) + len(b) - 1, which caps the size",
    ("rings:_convolve", _CONVOLVE_SIZE, "size = (len(a) + len(b)) * 1"):
        "as for len(a) + len(b) + 1",
    ("rings:_convolve", "if n is not None and n < size:",
     "if n is not None and n <= size:"):
        "at n == size the size is n either way",
    ("rings:_add", "if len(a) < len(b):", "if len(a) <= len(b):"):
        "swapping two sequences of one length changes neither the sum of "
        "the pairs nor the empty tail",
    ("partitions:iter_D", "free = [True] * (n + 1)", "free = [True] * (n + 2)"):
        "free is read only at values below n, so a longer list changes no read",
    ("partitions:iter_D", "while x < n and (not free[x]):", "while x <= n and (not free[x]):"):
        "n is never placed after position 0 (x = n passes neither x < prev nor "
        "x < n), so free[n] stays True and the loop stops at x = n either way",
    ("partitions:iter_D", "x += 1", "x += 2", 2):
        "after the last position yields, x is the one value not yet placed, so "
        "from x + 1 or x + 2 the scan finds no free value below n and the walk "
        "backs up; x + 2 passes n only when x is n - 1, and then every "
        "comparison with x fails as it does at n",
    ("partitions:iter_D", "free[x], rose[i] = (False, x > prev)",
     "free[x], rose[i] = (False, x >= prev)"):
        "x is free and prev is placed, so x == prev never holds",
    ("partitions:_grow", _GROW_CROSS, _GROW_CROSS.replace("b[0] < last", "b[0] <= last")):
        "the elements are distinct, so b[0] == last only for the target block "
        "with one element, for which last < b[-1] fails",
    ("partitions:_grow", _GROW_MIN2, _GROW_MIN2.replace("b[0] > last", "b[0] >= last")):
        "last is in the target block, which the check skips, and the "
        "elements are distinct, so no other block starts at last",
    ("rings:parse_ring_elem", _RING_TOP, _RING_TOP.replace("top + 1", "top + 2")):
        "the extra coefficient is 0, and QPoly strips trailing zeros",
    ("peaks:_regions", _PEAK_TEST,
     _PEAK_TEST.replace("word[i - 1] < value", "word[i - 1] <= value")):
        "the entries are distinct, so no neighbour is exactly as high as the value",
    ("peaks:_regions", _PEAK_TEST,
     _PEAK_TEST.replace("value > word[i + 1]", "value >= word[i + 1]")):
        "as for the left neighbour",
}.items()}


_SWAPS = {ast.Add: (ast.Sub, ast.Mult), ast.Sub: (ast.Add, ast.Mult),
          ast.Mult: (ast.Add, ast.Sub), ast.Pow: (ast.Mult,)}
_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.In: ast.NotIn, ast.NotIn: ast.In}
_MIN_MAX = {"min": "max", "max": "min"}


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
    elif isinstance(node, ast.Slice):
        for bound in ("lower", "upper"):
            if getattr(node, bound) is not None:
                for op in (ast.Add, ast.Sub):
                    yield _with(node, **{bound: ast.BinOp(getattr(node, bound), op(),
                                                          ast.Constant(1))})
    elif isinstance(node, ast.BoolOp):
        yield _with(node, op=ast.Or() if isinstance(node.op, ast.And) else ast.And())
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _MIN_MAX):
        yield _with(node, func=_with(node.func, id=_MIN_MAX[node.func.id]))


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


def _check(work: Path, args, test_timeout: float) -> tuple[list[str], str | None, float]:
    """The verify outcomes, the first failed test, and the test run's seconds."""
    verify = [_verify_outcome(*_run([sys.executable, "-m", "troupes", "verify", *case.split()],
                                    work, VERIFY_TIMEOUT))
              for case in args.verify]
    start = time.monotonic()
    code, out, _ = _run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                         "-p", "no:cacheprovider", *args.tests], work, test_timeout)
    return verify, _first_failure(code, out), time.monotonic() - start


def _reason(spec: str, before: str, after: str, k: int) -> str | None:
    """Why the k-th mutant of ``spec`` with this line pair is equivalent, if
    :data:`EQUIVALENT` lists it, for every occurrence or for the k-th."""
    return EQUIVALENT.get((spec, before, after), EQUIVALENT.get((spec, before, after, k)))


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

    sources, baseline, mutants, occurrences = {}, {}, [], {}
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
            occurrences[spec, before, after] = k = occurrences.get((spec, before, after), 0) + 1
            mutants.append((spec, module, qualname, target, (line, before, after, k)))
    found = {key for spec, _, _, _, (_, before, after, k) in mutants
             for key in ((spec, before, after), (spec, before, after, k))}
    orphans = [key for key in EQUIVALENT if key[0] in args.functions and key not in found]
    for spec, before, after, *k in orphans:
        print(f"error: EQUIVALENT entry matches no mutant: {spec}: {before}  ->  {after}"
              + (f" (occurrence {k[0]})" if k else ""), file=sys.stderr)
    if orphans:
        return 1

    def where(spec, line, before, after, k):
        """The mutant's place and change, with its occurrence where its line
        pair recurs."""
        total = occurrences[spec, before, after]
        return (f"{spec} line {line}" + (f" (occurrence {k} of {total})" if total > 1 else "")
                + f": {before}  ->  {after}")

    if args.list:
        try:
            for spec, _, _, _, (line, before, after, k) in mutants:
                tag = "  [equivalent]" if _reason(spec, before, after, k) else ""
                print(where(spec, line, before, after, k) + tag)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed the pipe, as ``| head`` does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

    work = args.work
    _copy_tree(work)
    for module, text in baseline.items():
        (work / "src" / "troupes" / f"{module}.py").write_text(text)
    verify, failed, seconds = _check(work, args, BASELINE_TIMEOUT)
    if _killed(verify, failed):
        print(f"error: the unmutated copy does not pass: verify {verify}, first failed test "
              f"{failed}", file=sys.stderr)
        return 2
    test_timeout = max(TEST_TIMEOUT_FLOOR, TEST_TIMEOUT_FACTOR * seconds)
    print(f"the unmutated test run took {seconds:.1f} s; each mutant's test run may take "
          f"{test_timeout:.0f} s", flush=True)

    results = []
    for spec, module, qualname, target, (line, before, after, k) in mutants:
        file = work / "src" / "troupes" / f"{module}.py"
        file.write_text(_mutant(sources[module], qualname, target)[0])
        try:
            verify, failed, _ = _check(work, args, test_timeout)
        finally:
            file.write_text(baseline[module])
        results.append((verify, failed))
        killed = _killed(verify, failed)
        reason = _reason(spec, before, after, k)
        if reason is not None:
            status = ("KILLED, but listed as equivalent" if killed else "equivalent") \
                + f" ({reason})"
        else:
            status = "killed" if killed else "survived"
        print(f"{status}: {where(spec, line, before, after, k)}\n"
              f"    verify: {', '.join(verify)}; first failed test: {failed or 'none'}",
              flush=True)

    print("\nscore (killed / mutants not listed as equivalent):")
    for spec in args.functions:
        mine = [(m, results[i]) for i, m in enumerate(mutants) if m[0] == spec]
        counted = [(m, r) for m, r in mine if _reason(spec, *m[4][1:]) is None]
        killed = sum(1 for _, result in counted if _killed(*result))
        by_verify = sum(1 for _, (verify, _) in counted if _killed(verify, None))
        print(f"  {spec}: {killed}/{len(counted)} killed ({by_verify} by verify), "
              f"{len(mine) - len(counted)} equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
