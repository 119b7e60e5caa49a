"""End-to-end and per-layer benchmark of the ``troupes`` CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Operations run as a closed loop: one client, one operation at a
time, each in a fresh interpreter (``python -m troupes ...`` or
``perfbench/plotdriver.py ...``), so process start and the lazy tables a CLI
user pays on every call are inside the timing.

``--trace 0`` repeats the workload's operation list for a number of rounds
fixed by ``--seconds`` and the workload (never by the clock, so every seed
attempts the same number of ops), with a fixed reference process run before
every op and after the last.  It reports ``wall_ref`` (one round's wall time
in units of the reference process's: the sum over the ops of the median
ratio of the op's wall time to its neighbouring reference runs),
``peak_rss_mb`` (largest max-RSS of any operation's process) and ``setup_s``
(median time of a fresh interpreter that only imports the modules the
workload uses, sampled between rounds).  The raw ``wall_s`` is printed.

``--trace 1`` runs the operation list once untraced and once (whatever
``--seconds`` says) with every ``troupes`` layer wrapped (``perfbench/traced_op.py``), checks that each
operation's stdout is byte-identical in both, reports the per-layer metrics
and writes the spans to ``perfbench/out/``.

Every operation's output is checked; a wrong output or a non-zero exit
counts in ``failed`` and never stops the run.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import PREV, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
OP_TIMEOUT_S = 150.0
SETUP_SAMPLES = 15
# The reference process: fixed work that uses only the standard library, so
# that its wall time follows the host's speed and not the program's.
REF_PROGRAM = """\
from fractions import Fraction
from itertools import permutations
acc, seen = Fraction(0), {}
for k, p in enumerate(permutations(range(8))):
    seen[p] = k
    if k % 8 == 0:
        acc += Fraction(p[0] - p[1], 1 + p[2])
"""
SETUP_SPAWN_S = 0.15   # one import-only spawn on an idle 2-vCPU VM
MIN_ROUNDS = 3


@dataclass
class OpResult:
    op: Op
    stdout: str
    wall_s: float
    maxrss_mb: float
    error: str | None
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str]) -> tuple[int, bytes, bytes, float, float]:
    """Run one process to completion; return exit code, stdout, stderr,
    wall seconds and max-RSS in MB (from ``os.wait4``)."""
    start = time.perf_counter()
    p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    finished = False
    try:
        out, err, finished = _drain(p, start + OP_TIMEOUT_S)
    finally:
        if not finished:  # timed out or interrupted
            p.kill()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
    wall = time.perf_counter() - start
    return p.returncode, out, err, wall, usage.ru_maxrss / 1024


def _drain(p: subprocess.Popen, deadline: float) -> tuple[bytes, bytes, bool]:
    """Read stdout and stderr to end of file, or until the deadline."""
    chunks: dict = {p.stdout: [], p.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
        finished = not sel.get_map()
    return b"".join(chunks[p.stdout]), b"".join(chunks[p.stderr]), finished


def op_command(op: Op, argv: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "traced_op.py"), op.kind, *argv]
    if op.kind == "cli":
        return [sys.executable, "-m", "troupes", *argv]
    return [sys.executable, str(HERE / "plotdriver.py"), *argv]


def run_ops(ops: list[Op], traced: bool = False,
            refs: list[float] | None = None) -> list[OpResult]:
    """One round: every op in order, each in its own process.

    With ``refs``, the reference process also runs before every op and after
    the last one, and its wall times are appended to ``refs``.
    """
    results = []
    prev = ""
    for op in ops:
        if refs is not None:
            refs.append(ref_sample())
        argv = [a.replace(PREV, prev) for a in op.argv]
        rc, out, err, wall, rss = run_child(op_command(op, argv, traced))
        stdout, trace = out.decode(errors="replace"), None
        if traced and rc == 0:
            try:
                trace = json.loads(stdout)
            except ValueError:
                rc, err = -1, b"traced run printed no result"
            else:
                rc, stdout = trace.pop("rc"), trace.pop("stdout")
        if rc != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            error = f"exit status {rc}: {tail}"
        else:
            error = op.check(stdout)
        results.append(OpResult(op, stdout, wall, rss, error, trace))
        prev = stdout.strip()
    if refs is not None:
        refs.append(ref_sample())
    return results


def ref_sample() -> float:
    rc, _, err, wall, _ = run_child([sys.executable, "-c", REF_PROGRAM])
    if rc != 0:
        raise RuntimeError(f"the reference process failed: {err.decode(errors='replace')}")
    return wall


def setup_sample(imports: tuple[str, ...]) -> float:
    rc, _, err, wall, _ = run_child([sys.executable, "-c", "import " + ", ".join(imports)])
    if rc != 0:
        raise RuntimeError(f"importing {imports} failed: {err.decode(errors='replace')}")
    return wall


def report_failures(results: list[OpResult]) -> int:
    failed = [r for r in results if r.error]
    for r in failed[:5]:
        print(f"FAILED {' '.join(r.op.argv)[:100]}: {r.error}", file=sys.stderr)
    return len(failed)


def measure(workload, ops: list[Op], seconds: int) -> tuple[dict, int, int]:
    """Repeat the op list with the reference process between ops.

    ``wall_ref`` sums over the ops the median, across rounds, of the op's
    wall time divided by the mean of the two reference samples around it.
    On a shared 2-vCPU VM the host's speed drifted by a quarter within a
    minute; the ratio cancels what the op and its neighbouring reference
    runs share.  The raw ``wall_s`` (median round) is printed alongside.
    """
    rounds = max(MIN_ROUNDS, round((seconds - SETUP_SAMPLES * SETUP_SPAWN_S)
                                   / workload.nominal_round_s))
    per_round_setup = math.ceil(SETUP_SAMPLES / rounds)
    setup_sample(workload.imports)  # compiles bytecode; not measured
    setups, results, ratios = [], [], []
    for _ in range(rounds):
        setups.extend(setup_sample(workload.imports) for _ in range(per_round_setup))
        refs: list[float] = []
        results.extend(round_results := run_ops(ops, refs=refs))
        ratios.extend(r.wall_s / ((a + b) / 2)
                      for r, a, b in zip(round_results, refs, refs[1:]))
    op_ratios = [sorted(ratios[i::len(ops)]) for i in range(len(ops))]
    op_walls = [sorted(r.wall_s for r in results[i::len(ops)]) for i in range(len(ops))]
    metrics = {
        "wall_ref": (sum(statistics.median(x) for x in op_ratios), "ref"),
        "peak_rss_mb": (max(r.maxrss_mb for r in results), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    round_walls = [sum(r.wall_s for r in results[k:k + len(ops)])
                   for k in range(0, len(results), len(ops))]
    print(f"rounds: {rounds}  setup samples: {len(setups)}")
    print(f"wall_s: {statistics.median(round_walls)} s")
    for op, walls, x in zip(ops, op_walls, op_ratios):
        print(f"  {' '.join(op.argv)[:60]}: {' '.join(f'{w:.3f}' for w in walls)} s;"
              f" {' '.join(f'{v:.2f}' for v in x)} ref")
    return metrics, len(results), report_failures(results)


def measure_traced(name: str, ops: list[Op], seed: int) -> tuple[dict, int, int]:
    """One untraced and one traced round; per-layer metrics of the traced one."""
    plain = run_ops(ops)
    traced = run_ops(ops, traced=True)
    for p, t in zip(plain, traced):
        if t.error is None and t.stdout != p.stdout:
            t.error = "traced stdout differs from the untraced run"
    calls, self_s, counts = Counter(), Counter(), Counter()
    root_s = 0.0
    spans, dropped = [], 0
    for i, t in enumerate(traced):
        if t.trace is None:
            continue
        calls.update(t.trace["calls"])
        self_s.update(t.trace["self_s"])
        counts.update(t.trace["counts"])
        root_s += t.trace["root_s"]
        spans.extend([i, *s] for s in t.trace["spans"])
        dropped += t.trace["spans_dropped"]
    metrics, bases = tracer.layer_metrics(
        calls, self_s, counts, root_s,
        traced_wall=sum(t.wall_s for t in traced),
        untraced_wall=sum(p.wall_s for p in plain))
    for key, (value, unit) in bases.items():
        print(f"{key}: {value} {unit}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["op", "span", "name", "start_s", "end_s", "parent"],
                   "ops": [list(t.op.argv) for t in traced], "spans": spans,
                   "spans_dropped": dropped}, fh)
    print(f"spans: {len(spans)} kept ({dropped} over the per-function cap) "
          f"in {path.relative_to(ROOT)}")
    return metrics, len(plain) + len(traced), report_failures(plain + traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_child's cleanup kills and reaps
    # the running operation.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "troupes" / "__init__.py").is_file():
        print(f"error: no troupes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    print(f"workload: {workload.name} ({workload.why})")
    print(f"seed: {args.seed}  ops per round: {len(ops)}  nproc: {os.cpu_count()}  "
          f"python: {platform.python_version()}")
    if args.trace:
        metrics, attempted, failed = measure_traced(workload.name, ops, args.seed)
    else:
        metrics, attempted, failed = measure(workload, ops, args.seconds)
    print(f"ops: {attempted} count")
    print(f"ops_failed: {failed} count")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
