#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload, in alternating pairs.

Each revision is exported with ``git archive`` into its own fresh temporary
directory, and every run sets ``PYTHONDONTWRITEBYTECODE=1``, so no run starts
from bytecode that an earlier one wrote: each pays the compile cost of the
modules it imports, as a run from a fresh checkout does.  Pair i runs
``perfbench/run.py`` with seed SEED + i on both sides, one after the other,
A first in even pairs and B first in odd ones.  First the non-blank line
count of each tree's ``src/ldga/*.py`` is printed, since source size moves
``setup_s`` (each fresh process compiles what it imports).  Each pair is
printed; then, for every end-to-end metric named in ``BENCHMARK.json``, each
side's median and quartiles and the median B/A ratio, and each side's failed
ops out of those attempted.  The last line of output is the same summary as
one JSON object (``summary_record``), the form a committed ``BENCH_*.json``
holds.  Exits 1 when either side reports ``correct: false`` (or prints no
result) or when side B fails a larger share of its ops than side A (an op
that raises counts as failed, not as wrong), 0 otherwise.

    python tools/ab_bench.py a842997 HEAD --workload m821-fields --pairs 10 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def metric_directions(benchmark: Path = REPO / "BENCHMARK.json") -> dict[str, str]:
    """Each end-to-end metric's name -> "lower" or "higher", the better way."""
    return {m["name"]: m["better"] for m in json.loads(benchmark.read_text())["end_to_end"]}


def export(rev: str, dest: Path) -> Path:
    """Write the tree of ``rev`` into dest with git archive."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def source_lines(tree: Path) -> int:
    """The non-blank lines of ``src/ldga/*.py`` in tree."""
    return sum(1 for path in (tree / "src" / "ldga").glob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one run: the JSON on the last line of stdout.

    None when the run exits nonzero or prints no such line.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if proc.returncode:
        print(f"{tree.name}: perfbench exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def is_correct(result: dict | None) -> bool:
    return bool(result and result.get("correct"))


def value(result: dict | None, metric: str) -> float | None:
    return (result or {}).get("metrics", {}).get(metric, {}).get("value")


def failed_ops(pairs) -> list[tuple[int, int]]:
    """(failed, attempted) ops of side A and of side B, summed over the pairs."""
    return [(sum((r or {}).get("failed", 0) for r in side),
             sum((r or {}).get("attempted", 0) for r in side))
            for side in ([a for a, _ in pairs], [b for _, b in pairs])]


def pair_line(label: str, a: dict | None, b: dict | None, metrics: list[str]) -> str:
    cells = [f"{side} {'correct' if is_correct(r) else 'NOT CORRECT'} failed {f}/{n}"
             for side, r, (f, n) in zip("AB", (a, b), failed_ops([(a, b)]))]
    for m in metrics:
        va, vb = value(a, m), value(b, m)
        if va is not None and vb is not None:
            cells.append(f"{m} {va:.4g} -> {vb:.4g}")
    return f"{label}: " + ", ".join(cells)


def quartiles(values: list[float]) -> dict[str, float]:
    """The median and quartiles of the values (one value is its own quartiles)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def metric_summary(pairs, metric: str, better: str = "lower") -> dict | None:
    """One metric over the pairs in which both sides report it; None if none do.

    Each side's median and quartiles, the median B/A ratio over the pairs
    with A nonzero (None if there are none) and their count, how many of
    those ratios are below 1, and how many pairs B wins in the ``better``
    direction ("lower" or "higher").
    """
    both = [(va, vb) for a, b in pairs
            if (va := value(a, metric)) is not None and (vb := value(b, metric)) is not None]
    if not both:
        return None
    r = [vb / va for va, vb in both if va]
    return {
        "pairs": len(both),
        "A": quartiles([va for va, _ in both]),
        "B": quartiles([vb for _, vb in both]),
        "median_ratio": statistics.median(r) if r else None,
        "ratios": len(r),
        "b_below_a": sum(x < 1 for x in r),
        "b_wins": sum(vb < va if better == "lower" else vb > va for va, vb in both),
    }


def _quartile_text(q: dict[str, float]) -> str:
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def summarize(pairs: list[tuple[dict | None, dict | None]], metrics: list[str]):
    """(summary lines, ok) for a list of (A result, B result) pairs.

    ``ok`` is False when any result is missing or not correct, or when B
    fails a larger share of its attempted ops than A.  A metric's
    quartiles are over the pairs in which both sides report it; its ratio
    is B/A per such pair with A nonzero (a pair with A = 0 is counted in a
    note), and its line gives the median ratio and how many pairs have B
    below A.
    """
    ok = all(is_correct(a) and is_correct(b) for a, b in pairs)
    lines = []
    for m in metrics:
        if (s := metric_summary(pairs, m)) is None:
            lines.append(f"{m}: no pairs")
            continue
        line = f"{m}: A {_quartile_text(s['A'])}, B {_quartile_text(s['B'])}; "
        if s["ratios"]:
            line += (f"median B/A {s['median_ratio']:.4f} over {s['ratios']} pairs, "
                     f"B below A in {s['b_below_a']}")
        else:
            line += "no ratio"
        if s["ratios"] < s["pairs"]:
            line += f" ({s['pairs'] - s['ratios']} pairs with A = 0 have no ratio)"
        lines.append(line)
    if not ok:
        lines.append("some run was not correct")
    (fa, na), (fb, nb) = failed_ops(pairs)
    if fb / max(nb, 1) > fa / max(na, 1):
        lines.append(f"B fails a larger share of its ops than A: {fb}/{nb} against {fa}/{na}")
        ok = False
    return lines, ok


def summary_record(pairs, directions: dict[str, str], ok: bool, **context) -> dict:
    """The summary as one JSON object: the context (workload, revisions,
    seeds, line counts), failed/attempted ops per side, whether the
    comparison passed, and ``metric_summary`` for each metric."""
    (fa, na), (fb, nb) = failed_ops(pairs)
    return {
        **context,
        "pairs": len(pairs),
        "ops": {"A": {"failed": fa, "attempted": na}, "B": {"failed": fb, "attempted": nb}},
        "ok": ok,
        "metrics": {m: metric_summary(pairs, m, better) for m, better in directions.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=41, help="seed of the first pair")
    args = parser.parse_args(argv)
    directions = metric_directions()
    metrics = list(directions)
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        tree_a = export(args.rev_a, Path(tmp) / "a")
        tree_b = export(args.rev_b, Path(tmp) / "b")
        lines_of = {"A": source_lines(tree_a), "B": source_lines(tree_b)}
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            print(f"{side} {rev}: {lines_of[side]} non-blank lines in src/ldga/*.py")
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            if i % 2:
                b = run_side(tree_b, args.workload, seed, args.seconds)
                a = run_side(tree_a, args.workload, seed, args.seconds)
            else:
                a = run_side(tree_a, args.workload, seed, args.seconds)
                b = run_side(tree_b, args.workload, seed, args.seconds)
            pairs.append((a, b))
            print(pair_line(f"pair {i} (seed {seed})", a, b, metrics), flush=True)
    lines, ok = summarize(pairs, metrics)
    (fa, na), (fb, nb) = failed_ops(pairs)
    print(f"failed ops: A {fa}/{na}, B {fb}/{nb}")
    print("\n".join(lines))
    print(json.dumps(summary_record(
        pairs, directions, ok, workload=args.workload, rev_a=args.rev_a, rev_b=args.rev_b,
        seed=args.seed, seconds=args.seconds, source_lines=lines_of)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
