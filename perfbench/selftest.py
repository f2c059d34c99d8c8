"""Self-test of the benchmark's output checks: planted wrong outputs fail.

    python3 perfbench/selftest.py

For each workload, runs the checks on a small real output (every check
must pass), then plants one wrong value (one flipped count, one wrong
cache counter, one changed table cell, a digest that differs from the
reference) and requires the checks to report it as a failure.  Exit
code 0 when every plant is caught, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as w  # noqa: E402

SMALL_ADVERSARY = {"n": 64, "replications": 4, "settle_factor": 0.05}
SMALL_SWEEP = {"vectors": ((1.0, 2.0), (1.0, 1.0, 1.0)), "ns": (20, 30, 40, 50),
               "rounds": 5, "replications": 2}


def failures(checks) -> list[str]:
    return [label for label, ok in checks if not ok]


def main() -> int:
    results = []

    def expect(name, checks, should_fail):
        failed = failures(checks)
        ok = bool(failed) == should_fail
        results.append(ok)
        verdict = "caught" if should_fail else "clean"
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict if ok else failed or 'not caught'}")

    seed = w.DEFAULT_SEED + 1
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        out = w.run_adversary(ROOT, seed, workdir, 1, size=SMALL_ADVERSARY)
        expect("adversary: real output", w.check_adversary(ROOT, seed, out), False)
        planted = copy.deepcopy(out)
        planted["value"]["replicated_final_counts"][0][0] += 1
        expect("adversary: one flipped replicated count", w.check_adversary(ROOT, seed, planted), True)
        planted = copy.deepcopy(out)
        planted["value"]["final_counts"][-1] -= 1
        expect("adversary: one flipped recorded count", w.check_adversary(ROOT, seed, planted), True)
        planted = copy.deepcopy(out)
        planted["value"]["replicated_final_counts"].pop()
        expect("adversary: missing replication", w.check_adversary(ROOT, seed, planted), True)
        expect("adversary: output differs from the reference digest",
               w.check_adversary(ROOT, w.DEFAULT_SEED, out), True)

        w.prepare_sweep(ROOT, seed, workdir, size=SMALL_SWEEP)
        w.refresh_sweep(workdir)
        out = w.run_sweep(ROOT, seed, workdir, 1, size=SMALL_SWEEP)
        expect("sweep: real output", w.check_sweep(ROOT, seed, out), False)
        planted = copy.deepcopy(out)
        planted["rows"][3][1][0] += 1
        expect("sweep: one flipped count", w.check_sweep(ROOT, seed, planted), True)
        planted = copy.deepcopy(out)
        planted["cache"]["hits"] += 1
        expect("sweep: wrong cache hit count", w.check_sweep(ROOT, seed, planted), True)
        planted = copy.deepcopy(out)
        planted["rows"].pop()
        expect("sweep: missing row", w.check_sweep(ROOT, seed, planted), True)
        planted = copy.deepcopy(out)
        # A plan that drops one cell: its rows are gone and the cache
        # counters agree with the rows that are left.
        n, _, k = planted["rows"][-1]
        planted["rows"] = [row for row in planted["rows"] if (row[0], row[2]) != (n, k)]
        planted["cache"]["misses"] = len(planted["rows"]) - planted["cache"]["hits"]
        expect("sweep: missing cell", w.check_sweep(ROOT, seed, planted), True)

    goldens = {
        name: (ROOT / "tests" / "golden" / f"{name}-quick.txt").read_text()
        for name in w.QUICK_EXPERIMENTS
    }
    out = {"code": 0, "stdout": "\n".join(goldens.values()), "tables": dict(goldens)}
    expect("quick: golden output", w.check_quick(ROOT, 0, out), False)
    planted = copy.deepcopy(out)
    name = w.QUICK_EXPERIMENTS[0]
    planted["tables"][name] = _flip_digit(planted["tables"][name])
    expect("quick: one flipped digit in an artifact", w.check_quick(ROOT, 0, planted), True)
    planted = copy.deepcopy(out)
    planted["stdout"] = _flip_digit(planted["stdout"])
    expect("quick: one flipped digit on stdout", w.check_quick(ROOT, 0, planted), True)
    planted = dict(out, code=1)
    expect("quick: non-zero exit code", w.check_quick(ROOT, 0, planted), True)

    print(f"{sum(results)}/{len(results)} self-tests passed")
    return 0 if all(results) else 1


def _flip_digit(text: str) -> str:
    """Change the last digit of the first table row."""
    lines = text.splitlines(keepends=True)
    row = lines[3]
    i = max(i for i, ch in enumerate(row) if ch.isdigit())
    lines[3] = row[:i] + str((int(row[i]) + 1) % 10) + row[i + 1:]
    return "".join(lines)


if __name__ == "__main__":
    sys.exit(main())
