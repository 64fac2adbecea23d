"""Paired benchmark runs: a base revision against the work tree, one workload.

    python3 tools/ab.py --base REV --workload W --seed S --pairs N [--seconds T] [--out FILE]

Exports REV with ``git archive`` into ``.bench_out/ab/base`` and the work
tree's tracked files, as they are on disk, into ``.bench_out/ab/change``.
Both sides must run the same benchmark: if the two ``bench/`` trees or
``BENCHMARK.json`` differ, the runner exits 2 before any run.  It then
alternates whole ``bench/run.py --trace 0`` runs of the two copies, A, B,
B, A, A, B, ...: odd pairs run the base first, even pairs the change.

It writes one JSON file, by default ``.bench_out/ab/BENCH_ab.json``.  An
existing file keeps its other entries, so runs at several workloads and
seeds can share one file; the entry ``"W seed S"`` is replaced.  For each
end-to-end metric of ``BENCHMARK.json`` the entry holds each side's median
and quartiles (inclusive method), the paired ratio change / base per pair,
its median as a change in per cent, a bootstrap 95 % interval of that
median (10 000 resamples of the pairs, seeded, so a rerun of the same runs
gives the same interval), the number of pairs the change wins by the
metric's ``better`` direction (ties count for neither side), the base's
interquartile range and the gap between the medians.  ``gain`` is true
when the change wins at least nine pairs in ten and its median is better
than the base's by more than the base's interquartile range.
``regressed`` is true when the change's median is worse than the base's
by more than the metric's ``bound`` in ``BENCHMARK.json``, a share of the
base median, in the metric's ``better`` direction: a change that the
benchmark's check would refuse.  The entry also holds each side's
failed-op share (failed ops over attempted ops, all runs pooled) and
whether the change's share is the larger.

With n pairs the interval can be no wider than the smallest and largest
ratio, which hold the true median with probability 1 - 2^(1-n): 75 % at
3 pairs, 99.8 % at 10.  Exits 1 when a run fails, reports a wrong result
or counts a failed op, and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / ".bench_out" / "ab"
RESAMPLES = 10_000
RUN_TIMEOUT_S = 600


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_base(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_work_tree(dest: Path) -> None:
    for name in git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def benchmark_files(tree: Path) -> dict[str, bytes]:
    files = [tree / "BENCHMARK.json", *(tree / "bench").rglob("*")]
    return {str(path.relative_to(tree)): path.read_bytes() for path in files if path.is_file()}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name}: bench/run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def bootstrap_median(ratios: list[float], seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES))
    return medians[int(0.025 * RESAMPLES)], medians[int(0.975 * RESAMPLES) - 1]


def summarize(base: list[float], change: list[float], lower_is_better: bool, bound: float, seed: int) -> dict:
    ratios = [b / a for a, b in zip(base, change)]
    wins = sum(b < a if lower_is_better else b > a for a, b in zip(base, change))
    sides = {}
    for side, values in (("base", base), ("change", change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3}
    iqr = sides["base"]["q3"] - sides["base"]["q1"]
    gap = sides["change"]["median"] - sides["base"]["median"]
    better_gap = -gap if lower_is_better else gap
    low, high = bootstrap_median(ratios, seed)
    return {
        **sides,
        "ratios": ratios,
        "change_pct": 100 * (statistics.median(ratios) - 1),
        "ratio_ci95": [low, high],
        "ci_holds_1": low <= 1 <= high,
        "change_better_pairs": f"{wins}/{len(ratios)}",
        "base_iqr": iqr,
        "median_gap": gap,
        "gain": wins >= 0.9 * len(ratios) and better_gap > iqr,
        "regressed": -better_gap > bound * abs(sides["base"]["median"]),
    }


def failed_share(runs: list[dict]) -> dict:
    shares = {side: sum(run["failed"] for run in runs if run["side"] == side)
              / max(1, sum(run["attempted"] for run in runs if run["side"] == side))
              for side in ("base", "change")}
    return {**shares, "rose": shares["change"] > shares["base"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, default=AB / "BENCH_ab.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    trees = {"base": AB / "base", "change": AB / "change"}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    export_base(base_rev, trees["base"])
    export_work_tree(trees["change"])
    base_files, change_files = (benchmark_files(tree) for tree in trees.values())
    if base_files != change_files:
        differing = sorted(name for name in base_files.keys() | change_files.keys()
                           if base_files.get(name) != change_files.get(name))
        print(f"error: the benchmark differs between {base_rev[:12]} and the work tree: {', '.join(differing)}",
              file=sys.stderr)
        return 2

    end_to_end = json.loads(change_files["BENCHMARK.json"])["end_to_end"]
    runs, ok = [], True
    for pair in range(1, args.pairs + 1):
        for side in ("base", "change") if pair % 2 else ("change", "base"):
            try:
                result = run_once(trees[side], args.workload, args.seed, args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: pair {pair} {side}: {exc}", file=sys.stderr)
                return 1
            values = {m["name"]: result["metrics"][m["name"]]["value"] for m in end_to_end}
            runs.append({"pair": pair, "side": side, "attempted": result["attempted"], "failed": result["failed"],
                         "correct": result["correct"], **values})
            ok = ok and result["correct"] is True and result["failed"] == 0
            print(f"pair {pair} {side}: " + ", ".join(f"{k} {v}" for k, v in values.items()), file=sys.stderr)

    def series(side: str, name: str) -> list[float]:
        return [run[name] for run in runs if run["side"] == side]  # in pair order

    summary = {m["name"]: summarize(series("base", m["name"]), series("change", m["name"]),
                                    m["better"] == "lower", m["bound"], args.seed) for m in end_to_end}
    failed = failed_share(runs)
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    report = json.loads(args.out.read_text()) if args.out.is_file() else {}
    report.update({
        "base": base_rev,
        "change": f"work tree at {head}" + (" with uncommitted changes" if dirty else ""),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "command": f"python3 bench/run.py --workload <name> --seed <seed> --seconds {args.seconds:g} --trace 0",
        "order": "pairs alternate which side runs first (odd pairs: base first)",
    })
    report.setdefault("workloads", {})[f"{args.workload} seed {args.seed}"] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "summary": summary, "failed_share": failed, "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, s in summary.items():
        print(f"{name}: base {s['base']['median']:.4g}, change {s['change']['median']:.4g}, "
              f"{s['change_pct']:+.1f} % [{s['ratio_ci95'][0]:.4f}, {s['ratio_ci95'][1]:.4f}], "
              f"better {s['change_better_pairs']}, gain {s['gain']}, regressed {s['regressed']}")
    print(f"failed-op share: base {failed['base']:.6f}, change {failed['change']:.6f}, rose {failed['rose']}")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
