"""hkcert benchmark: four seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload tables|search|colength|cli|all \\
        --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from ``src/`` next to
this directory, never from an installed copy.  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
The lines before it repeat every metric with its unit and sample count,
and the environment.  Results and span files go to ``.bench_out/``.

``correct`` is false when any op raised or produced a value (return
value, stdout line, report bytes) that differs from the oracles in
``oracles.py``.  ``failed`` counts those ops plus ops whose exit code
breaks the README contract (0 pass, 1 failed comparison, 2 usage
error); see README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import oracles
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 14       # fresh interpreters timed to their first op, besides the run itself
PROCESS_PROBES = 7      # bare-interpreter and import-only probes in a traced run
MIN_OPS = 100           # so that at least 10 latency samples lie beyond p90
CAP_SECONDS = 100       # op time after which a run stops even below MIN_OPS
DEADLINE_SECONDS = 170  # the whole run, including set-up and checks
TRACE_CYCLES = {"tables": 200, "search": 2, "colength": 20, "cli": 2}
_START = time.monotonic()

class BenchError(RuntimeError):
    pass


def _remaining() -> float:
    left = DEADLINE_SECONDS - (time.monotonic() - _START)
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_SECONDS} s")
    return left


@functools.cache
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HK_CERTIFY_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _communicate(argv: list[str], stdin: str | None = None, cwd: Path = ROOT,
                 timeout: float = 60.0) -> subprocess.CompletedProcess:
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), text=True, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(stdin, timeout=min(timeout, _remaining()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out: {argv}") from None
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


# -- environment ---------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed: int, inherited_threads: str | None) -> dict:
    sys.path.insert(0, str(SRC))
    import hkcert

    digest = hashlib.sha256()
    for path in sorted((SRC / "hkcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "hkcert_version": hkcert.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "HK_CERTIFY_THREADS": "unset" if inherited_threads is None else f"unset (was {inherited_threads!r})",
    }


# -- in-process workloads ---------------------------------------------------------------


def _worker(payload: dict) -> tuple[float, dict]:
    done = _communicate([sys.executable, str(BENCH / "worker.py")], json.dumps(payload), timeout=DEADLINE_SECONDS)
    if done.returncode != 0:
        raise BenchError(f"worker failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout)
    if not Path(result["hkcert_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported hkcert from {result['hkcert_file']}, not from {SRC}")
    return result["setup_cpu_s"] * calib.NOMINAL_NS / statistics.median(result["setup_ref_ns"]), result


def _checker(workload: str, digests: dict):
    memo: dict[tuple[str, str], str | None] = {}

    def check(spec: dict, obs: str) -> str | None:
        key = (json.dumps(spec, sort_keys=True), obs)
        if key not in memo:
            if obs.startswith("!"):
                memo[key] = "raised " + obs[1:]
            elif workload == "tables":
                memo[key] = oracles.check_tables(spec, obs, digests)
            elif workload == "search":
                memo[key] = oracles.check_search(spec, obs)
            else:
                memo[key] = oracles.check_colength(spec, obs)
        return memo[key]

    return check


def _check_ops(workload: str, seed: int, results: list[dict], digests: dict) -> tuple[int, list[str]]:
    """Checks every op of the last result and the first op of each; returns (attempted, failures)."""
    check = _checker(workload, digests)
    first = workloads.make_cycle(workload, seed, 0)[0]
    reasons = [check(first, result["first_obs"]) for result in results]
    result = results[-1]
    specs = [spec for index in range(result["cycles"]) for spec in workloads.make_cycle(workload, seed, index)]
    reasons += [check(spec, result["observations"][i]) for spec, i in zip(specs, result["ids"])]
    return len(reasons), [r for r in reasons if r is not None]


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool, digests: dict) -> dict:
    cycle0 = workloads.make_cycle(workload, seed, 0)
    payload = {"workload": workload, "seed": seed, "cycle0": cycle0}
    if not trace:
        runs = [_worker(dict(payload, mode="probe")) for _ in range(SETUP_PROBES)]
        runs.append(_worker(dict(payload, mode="run", seconds=seconds, min_ops=MIN_OPS,
                                 cap_seconds=min(CAP_SECONDS, _remaining() - 30))))
        setups = [setup for setup, _ in runs]
        result = runs[-1][1]
        attempted, failures = _check_ops(workload, seed, [r for _, r in runs], digests)
        scaled = calib.scale(result["cpu_ns"], result["ref_positions"], result["ref_ns"])
        metrics, raw = _end_to_end(setups, scaled, result["cpu_ns"], result["wall_ns"], result["peak_rss_kb"])
        return {
            "attempted": attempted,
            "failures": failures,
            "wrong": failures,
            "metrics": metrics,
            "raw": raw,
            "samples": {"setup_s": len(setups), "latency": len(result["cpu_ns"]), "cycles": result["cycles"]},
        }
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv"
    _, result = _worker(dict(payload, mode="trace", trace_cycles=TRACE_CYCLES[workload], spans_path=str(spans_path)))
    attempted, failures = _check_ops(workload, seed, [result], digests)
    agg = tracer.aggregate(tracer.read_spans(str(spans_path)))
    probes = _process_probes()
    extra = {"overhead_ratio": result["traced_ns"] / result["untraced_ns"], **probes}
    return {
        "attempted": attempted,
        "failures": failures,
        "wrong": failures,
        "metrics": layer_metrics(agg, extra),
        "samples": {"traced_ops": len(result["ids"]), "spans": sum(s["calls"] for s in agg["stats"].values()),
                    "process_probes": PROCESS_PROBES, "spans_file": str(spans_path.relative_to(ROOT))},
    }


def _figures(times_ns: list[float]) -> tuple[float, float, float]:
    """Ops per second, median and 90th percentile in ms, of one list of op times."""
    return (len(times_ns) / (sum(times_ns) / 1e9), statistics.median(times_ns) / 1e6,
            statistics.quantiles(times_ns, n=10)[8] / 1e6)


def _end_to_end(setups: list[float], scaled_ns: list[float], cpu_ns: list[int], wall_ns: list[int],
                rss_kb: int) -> tuple[dict, dict]:
    """The bounded metrics, from CPU times at reference speed, and the raw CPU and wall figures, only printed."""
    per_s, p50, p90 = _figures(scaled_ns)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s_ref": (per_s, "1/s"),
        "op_p50_ms_ref": (p50, "ms"),
        "op_p90_ms_ref": (p90, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    unbounded = {f"{clock}_{name}": value for clock, times in (("cpu", cpu_ns), ("wall", wall_ns))
                 for name, value in zip(("ops_per_s", "op_p50_ms", "op_p90_ms"), _figures(times))}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, unbounded


def _process_probes() -> dict:
    """Median bare-interpreter start and fresh ``import hkcert.cli`` time."""
    starts, imports = [], []
    code = "import time; t = time.perf_counter(); import hkcert.cli; print(time.perf_counter() - t)"
    for _ in range(PROCESS_PROBES):
        start = time.perf_counter()
        _communicate([sys.executable, "-c", "pass"])
        starts.append(time.perf_counter() - start)
        imports.append(float(_communicate([sys.executable, "-c", code]).stdout))
    return {"interp_start_s": statistics.median(starts), "import_s": statistics.median(imports)}


# -- cli workload ----------------------------------------------------------------------------


def _write_cli_files(directory: Path, specs: list[dict]) -> None:
    for spec in specs:
        if "file" in spec:
            lines = [f"# generators of {spec['file']}", ""] + [" ".join(map(str, g)) for g in spec["gens"]]
            (directory / spec["file"]).write_text("\n".join(lines) + "\n")


def run_cli(seed: int, seconds: float, trace: bool, digests: dict) -> dict:
    directory = OUT / f"cli-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.csv"):
        stale.unlink()
    plain = [sys.executable, "-m", "hkcert"]
    records: list[list] = []  # [spec, completed process, CSV text or None], checked at the end

    def children_cpu_ns() -> int:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return round((usage.ru_utime + usage.ru_stime) * 1e9)

    def op(spec: dict, prefix: list[str] = plain) -> tuple[int, int]:
        """Runs one invocation; returns its wall time and the CPU time of the child, in ns."""
        start, cpu_start = time.perf_counter_ns(), children_cpu_ns()
        done = _communicate(prefix + spec["args"], cwd=directory)
        wall, cpu = time.perf_counter_ns() - start, children_cpu_ns() - cpu_start
        records.append([spec, done, None])
        return wall, cpu

    def collect_csv(record: list) -> None:
        path = directory / record[0]["csv"] if "csv" in record[0] else None
        if path is not None and path.exists():
            record[2] = path.read_text()
            path.unlink()

    cycle0 = workloads.make_cycle("cli", seed, 0)
    _write_cli_files(directory, cycle0)
    raw, known_index = None, []
    if not trace:
        setups, ref_ns = [], []
        for _ in range(SETUP_PROBES + 1):
            setups.append(op(cycle0[0])[1] / 1e9)
            ref_ns.append(calib.sample())
        speed = calib.NOMINAL_NS / statistics.median(ref_ns)
        setups = [setup * speed for setup in setups]
        wall_ns, cpu_ns, busy_ns, index = [], [], 0, 0
        meter = calib.Meter()
        cap_ns = min(CAP_SECONDS, _remaining() - 20) * 1e9
        while (busy_ns < seconds * 1e9 or len(wall_ns) < MIN_OPS) and busy_ns < cap_ns:
            specs = cycle0 if index == 0 else workloads.make_cycle("cli", seed, index)
            _write_cli_files(directory, specs)
            start = time.perf_counter_ns()
            for spec in specs:
                wall, cpu = op(spec)  # each cycle writes its CSV files under their own names
                wall_ns.append(wall)
                cpu_ns.append(cpu)
                meter.after_op(cpu)
            busy_ns += time.perf_counter_ns() - start
            index += 1
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        for record in records:
            collect_csv(record)
        scaled = calib.scale(cpu_ns, meter.positions, meter.samples)
        metrics, raw = _end_to_end(setups, scaled, cpu_ns, wall_ns, rss_kb)
        samples = {"setup_s": len(setups), "latency": len(cpu_ns), "cycles": index}
    else:
        spans_path = OUT / f"spans-cli-seed{seed}.tsv"
        spans_path.write_text("")
        specs = [s for i in range(TRACE_CYCLES["cli"]) for s in workloads.make_cycle("cli", seed, i)]
        for index in range(1, TRACE_CYCLES["cli"]):
            _write_cli_files(directory, workloads.make_cycle("cli", seed, index))
        probes = _process_probes()
        plain_index, plain_ns, traced_ns = [], [], 0
        # Plain and traced invocations alternate, flipping which goes first.
        for number, spec in enumerate(specs):
            traced_prefix = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), str(number), "--"]
            for traced in (False, True) if number % 2 == 0 else (True, False):
                if traced:
                    traced_ns += op(spec, traced_prefix)[0]
                else:
                    plain_ns.append(op(spec)[0])
                    plain_index.append(len(records) - 1)
                collect_csv(records[-1])
        # The usage errors that exit 1 instead of 2 are run once each, outside
        # the ops, so that cli.exit_mismatches shows them until they are fixed.
        for args in workloads.SYSTEMEXIT_ERRORS:
            op({"cmd": "usage", "args": list(args)})
            known_index.append(len(records) - 1)
        floor_ns = (probes["interp_start_s"] + probes["import_s"]) * 1e9
        extra = {
            **probes,
            "overhead_ratio": traced_ns / sum(plain_ns),
            "command_ms": statistics.median(elapsed - floor_ns for elapsed in plain_ns) / 1e6,
            "stdout_bytes": sum(len(records[i][1].stdout.encode()) for i in plain_index),
        }
        samples = {"traced_ops": len(specs), "process_probes": PROCESS_PROBES,
                   "spans_file": str(spans_path.relative_to(ROOT))}
    outcomes = [oracles.check_cli(spec, done.returncode, done.stdout, csv_text, digests)
                for spec, done, csv_text in records]
    if trace:
        extra["exit_mismatches"] = sum(outcomes[i][0] == "exit" for i in plain_index + known_index)
        metrics = layer_metrics(tracer.aggregate(tracer.read_spans(str(spans_path))), extra)
    wrong = [f"{kind}: {reason}" for kind, reason in outcomes if kind == "value"]
    ops = [outcome for i, outcome in enumerate(outcomes) if i not in known_index]
    failures = [f"{kind}: {reason}" for kind, reason in ops if kind != "ok"]
    return {"attempted": len(ops), "failures": failures, "wrong": wrong, "metrics": metrics, "raw": raw,
            "samples": samples}


# -- per-layer metrics ---------------------------------------------------------------------------

PER_LAYER = (
    ("slab.vol_slab", ("calls", "self_ms", "result_bits_max")),
    ("series.conjecture_threshold", ("calls", "self_ms")),
    ("series.secant_tangent_coeffs", ("calls", "self_ms")),
    ("bounds.volume_lower_bound", ("calls", "self_ms")),
    ("bounds.optimize_slice", ("calls", "self_ms", "evals_per_call")),
    ("bounds.certify_interval", ("calls", "self_ms")),
    ("bounds.quadratic_bound", ("calls", "self_ms")),
    ("bounds.quadratic_apex", ("calls", "self_ms")),
    ("bounds.quadric_ehk", ("self_ms",)),
    ("monomial.frobenius_colength", ("calls", "self_ms", "box_points")),
    ("monomial.mixed_colength", ("calls", "self_ms", "box_points")),
    ("monomial.ehk_estimate", ("self_ms",)),
    ("tables.verify_tables", ("calls", "self_ms")),
)
UNITS = {"calls": "count", "self_ms": "ms", "result_bits_max": "bits", "evals_per_call": "count",
         "box_points": "count"}


def layer_metrics(agg: dict, extra: dict) -> dict:
    stats, child_calls = agg["stats"], agg["child_calls"]
    empty = {"calls": 0, "self_ns": 0, "value_max": 0, "value_sum": 0, "threads_max": 0}
    out: dict[str, tuple[float, str]] = {}
    for name, kinds in PER_LAYER:
        entry = stats.get(name, empty)
        values = {
            "calls": entry["calls"],
            "self_ms": entry["self_ns"] / 1e6,
            "result_bits_max": entry["value_max"],
            "box_points": entry["value_sum"],
            "evals_per_call": (child_calls[(name, "bounds.volume_lower_bound")] / entry["calls"]
                               if entry["calls"] else 0),
        }
        for kind in kinds:
            out[f"{name}.{kind}"] = (values[kind], UNITS[kind])
    out["tables.worker_threads_max"] = (stats.get("tables.verify_tables", empty)["threads_max"], "count")
    for method in ("to_text", "to_csv"):
        out[f"report.{method}.self_ms"] = (stats.get(f"report.{method}", empty)["self_ns"] / 1e6, "ms")
    out["report.bytes"] = (sum(stats.get(f"report.{m}", empty)["value_sum"] for m in ("to_text", "to_csv")), "bytes")
    out["cli.interp_start_ms"] = (extra["interp_start_s"] * 1e3, "ms")
    out["cli.import_ms"] = (extra["import_s"] * 1e3, "ms")
    out["cli.command_ms"] = (extra.get("command_ms", 0), "ms")
    out["cli.stdout_bytes"] = (extra.get("stdout_bytes", 0), "bytes")
    out["cli.exit_mismatches"] = (extra.get("exit_mismatches", 0), "count")
    out["trace.op_wall_ms"] = (agg["root_ns"] / 1e6, "ms")
    out["trace.overhead_ratio"] = (extra["overhead_ratio"], "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# -- entry point -----------------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    digests = json.loads((BENCH / "data" / "table_digests.json").read_text())
    if workload == "cli":
        return run_cli(seed, seconds, trace, digests)
    return run_inprocess(workload, seed, seconds, trace, digests)


def _report_lines(workload: str, result: dict) -> list[str]:
    lines = [f"[{workload}] attempted={result['attempted']} failed={len(result['failures'])} "
             f"fail_ratio={len(result['failures']) / result['attempted']:.6f} samples={json.dumps(result['samples'])}"]
    for name, metric in result["metrics"].items():
        lines.append(f"[{workload}] {name} = {metric['value']} {metric['unit']}")
    if result.get("raw"):
        lines.append(f"[{workload}] raw CPU and wall time, not bounded: " + ", ".join(
            f"{name} = {value:.6g}" for name, value in result["raw"].items()))
    wall = result["metrics"].get("trace.op_wall_ms", {}).get("value")
    if wall:
        shares = {}
        for name, metric in result["metrics"].items():
            if name.endswith(".self_ms") and not name.startswith("cli."):
                layer = name.split(".")[0]
                shares[layer] = shares.get(layer, 0) + metric["value"] / wall
        lines.append(f"[{workload}] self time as a share of traced op wall: "
                     + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
    for reason in sorted(set(result["failures"]))[:10]:
        lines.append(f"[{workload}] failure: {reason}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hkcert" / "__init__.py").is_file():
        print(f"error: no hkcert package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    inherited_threads = os.environ.get("HK_CERTIFY_THREADS")
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC / "hkcert"), quiet=1)  # warm bytecode caches, as an installed copy has
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (BenchError, oracles.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed, inherited_threads)
    for name, result in results.items():
        print("\n".join(_report_lines(name, result)))
        record = dict(result, workload=name, trace=args.trace, seconds=args.seconds, environment=env)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("environment: " + json.dumps(env))
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, result in results.items() for key, m in result["metrics"].items()}
    print(json.dumps({
        "correct": not any(result["wrong"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(len(result["failures"]) for result in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
