"""Runs the ops of one in-process workload in a fresh interpreter.

Started by run.py with a JSON payload on stdin; prints one JSON object
on stdout.  Modes:

* ``probe``: import hkcert, run the first op, report the CPU time used so
  far and how fast the reference computation of ``calib.py`` runs;
* ``run``: the same, then whole cycles in a closed loop until ``seconds``
  of op wall time have passed and at least ``min_ops`` ops were made;
* ``trace``: the same first op, then each op of ``trace_cycles`` cycles
  twice, once plain and once with every layer wrapped by the tracer.

Ops are timed on two clocks: wall time, and the CPU time of this
process (all its threads).  ``setup_cpu_s`` is the CPU time of the
process from its start until the first op returned, less the CPU time
spent reading the payload.  The CPU clock leaves out time the CPU was
taken away from the process, by the host or by other processes, so it
is the steadier measure on a shared machine.  Between ops, outside their
timings, ``calib.Meter`` samples how fast the machine runs right now.
"""

import sys
import time

_load_start = time.process_time()
import json  # noqa: E402

payload = json.loads(sys.stdin.read())
_load_cpu_s = time.process_time() - _load_start

import hkcert  # noqa: E402
import ops  # noqa: E402

WORKLOAD = payload["workload"]
_run = ops.RUNNERS[WORKLOAD]


def timed(spec, runner=_run):
    """Returns (wall ns, CPU ns, observation) of one op."""
    start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
    try:
        value = runner(spec)
    except Exception as exc:  # an op that raises is counted as failed
        obs = f"!{type(exc).__name__}: {exc}"
    else:
        obs = None
    cpu, wall = time.process_time_ns() - cpu_start, time.perf_counter_ns() - start
    return wall, cpu, obs if obs is not None else ops.render(WORKLOAD, value)


cycle0 = payload["cycle0"]
first_obs = timed(cycle0[0])[2]
setup_cpu_s = time.process_time() - _load_cpu_s
import calib  # noqa: E402

# The speed of the CPU this process ran its set-up on, to scale setup_cpu_s by.
setup_ref_ns = [calib.sample() for _ in range(calib.SETUP_SAMPLES)]
result = {"setup_cpu_s": setup_cpu_s, "setup_ref_ns": setup_ref_ns, "hkcert_file": hkcert.__file__,
          "first_obs": first_obs}

if payload["mode"] != "probe":
    import resource

    import workloads

    observations: dict[str, int] = {}

    def intern(obs: str) -> int:
        return observations.setdefault(obs, len(observations))

    def cycle(index: int) -> list:
        return cycle0 if index == 0 else workloads.make_cycle(WORKLOAD, payload["seed"], index)

    if payload["mode"] == "run":
        wall_ns, cpu_ns, ids = [], [], []
        meter = calib.Meter()
        busy_ns, index = 0, 0
        budget_ns, cap_ns = int(payload["seconds"] * 1e9), int(payload["cap_seconds"] * 1e9)
        while (busy_ns < budget_ns or len(wall_ns) < payload["min_ops"]) and busy_ns < cap_ns:
            specs = cycle(index)
            start = time.perf_counter_ns()
            for spec in specs:
                wall, cpu, obs = timed(spec)
                wall_ns.append(wall)
                cpu_ns.append(cpu)
                ids.append(intern(obs))
                meter.after_op(cpu)  # a reference sample, when one is due; outside the op's timings
            busy_ns += time.perf_counter_ns() - start
            index += 1
        result.update(
            cycles=index,
            wall_ns=wall_ns,
            cpu_ns=cpu_ns,
            ref_ns=meter.samples,
            ref_positions=meter.positions,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    else:
        import tracer

        specs = [spec for index in range(payload["trace_cycles"]) for spec in cycle(index)]
        spans = tracer.Tracer()
        switch = tracer.install(spans)
        traced_op = spans.wrap(_run, "op")
        untraced_ns, traced_ns, ids = 0, 0, []
        # Each op runs untraced and traced back to back, alternating which
        # goes first, so warm-up and drift fall on both sides equally.
        for number, spec in enumerate(specs):
            for traced in (False, True) if number % 2 == 0 else (True, False):
                switch(traced)
                if traced:
                    spans.op = number
                    elapsed, _, obs = timed(spec, traced_op)
                    traced_ns += elapsed
                    ids.append(intern(obs))
                else:
                    untraced_ns += timed(spec)[0]
        spans.dump(payload["spans_path"])
        result.update(cycles=payload["trace_cycles"], untraced_ns=untraced_ns, traced_ns=traced_ns)
    result.update(ids=ids, observations=list(observations))

sys.stdout.write(json.dumps(result))
