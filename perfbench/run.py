#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload lens64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process, which is fresh, so nothing memoized by the
package carries over from another run.  Set-up (imports, grids, data, step
rule) is timed from process start and done three times; ``setup_s`` is the
import time plus the median build.  The timed phase then runs whole passes of
the workload until ``--seconds`` have elapsed, at least one; ``wall_s`` is the
median pass.  With ``--trace 1`` calls into the package are recorded as spans,
public calls are priced on the workload's grid after the timed phase, and the
per-layer metrics are printed instead of the end-to-end ones.

``--workload all`` (or a comma-separated list) runs each workload in a child
process, untraced and then traced, prints both tables and the tracing
overhead.  The last line of standard output is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

# Pinned before NumPy loads.  One BLAS/OpenMP thread per process.  glibc's
# allocator thresholds are fixed at the values its dynamic adjustment tends
# towards (32 MiB mmap threshold): left dynamic, whether the package's large
# per-iteration temporaries come from the heap or from fresh mmap pages
# depends on the process's allocation history, and e.g. minimal_Q flips
# between about 6 s and 13 s on identical inputs.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

_T0 = time.perf_counter()  # set-up time counts from here, before NumPy loads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
DEFAULT_WORKLOADS = ("lens64", "disk_pairs", "verify")


class MissingProgram(RuntimeError):
    pass


def _import_package():
    src = ROOT / "src"
    if not (src / "harea" / "__init__.py").is_file():
        raise MissingProgram(f"no harea package under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import harea

    if Path(harea.__file__).resolve().parent != (src / "harea").resolve():
        raise MissingProgram(f"harea imported from {harea.__file__}, not from {src}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_package()
    from perfbench import metrics
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS, Api, Tally, price_bsc, price_public_calls

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[workload]
    tally = Tally()
    tracer = Tracer(trace, run_id=f"{workload}-{seed}-{os.getpid()}")
    api = Api(tracer, tally)
    import_s = time.perf_counter() - _T0
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.setup(api, seed)
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    wall = []
    begin = time.perf_counter()
    while not wall or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        with tracer.span("run"):
            wl.run(api, state)
        wall.append(time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        probes = price_public_calls(*wl.probe_inputs(state))
        probes.update(price_bsc())
        tracer.write(ROOT / ".bench_out" / f"trace-{workload}-{seed}.json")
        values = metrics.per_layer(tally, tracer, wall, probes)
        specs = [(name, unit) for name, unit, _ in metrics.PER_LAYER]
    else:
        values = metrics.end_to_end(tally, wall, setup_s, peak_rss_mb)
        specs = [(name, unit) for name, unit, _, _ in metrics.END_TO_END]

    print(f"workload {workload}  seed {seed} ({'used' if wl.seeded else 'unused: inputs fixed by the program'})"
          f"  passes {len(wall)}  trace {int(trace)}")
    print(f"operations attempted {tally.attempted}  failed {tally.failed}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    moves = {name: m for name, _, m in metrics.PER_LAYER}
    for name, unit in specs:
        print(f"  {name:<36} {values[name]:>16.6g} {unit:<6} {moves.get(name, '')}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }


def run_many(workloads: list[str], seed: int, seconds: float) -> dict:
    """Each workload untraced and traced, each in a fresh child process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1800)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{w} --trace {trace} exited with {proc.returncode}")
            results.append(json.loads(lines[-1]))
        plain, traced = results
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"  {'tracing overhead (traced - untraced wall_s)':<36} {overhead:>16.6g} s\n")
        combined["correct"] &= plain["correct"] and traced["correct"]
        combined["attempted"] += plain["attempted"]
        combined["failed"] += plain["failed"]
        for result in results:
            for name, v in result["metrics"].items():
                combined["metrics"][f"{w}.{name}"] = v
        combined["metrics"][f"{w}.trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="lens64, lens128, disk_pairs, verify, a comma-separated list, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(DEFAULT_WORKLOADS) if args.workload == "all" else args.workload.split(",")
    try:
        if len(names) == 1:
            result = run_one(names[0], args.seed, args.seconds, bool(args.trace))
        else:
            result = run_many(names, args.seed, args.seconds)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
