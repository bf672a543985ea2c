"""Benchmark runner for gatesynth.

    python3 perfbench/run.py --workload parity_5q --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py                  # every workload, each in its own process

One run builds the workload's inputs, runs one operation untimed to warm up,
then repeats whole rounds of its operations while another round still fits
in --seconds, and checks every result. Times are corrected for the machine's
speed while they were taken (speed.py). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The same object, with the machine description, is kept in
perfbench/out/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_workloads():
    """Import the workloads against the program in this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    import gatesynth

    if Path(gatesynth.__file__).resolve().parent != ROOT / "src" / "gatesynth":
        raise SystemExit(f"gatesynth imported from {gatesynth.__file__}, not from {ROOT / 'src'}")
    import workloads

    return workloads


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def probe_setup(args):
    """Child process: import and set up, then report the time since spawn,
    as wall seconds and speed-corrected."""
    probe = speed.SpeedProbe()
    probe.start()
    try:
        wl = import_workloads().WORKLOADS[args.workload](OUT / f"probe-{os.getpid()}")
        wl.setup()
        # speed.clock is time.monotonic, one clock for every process on the machine
        end = speed.clock()
    finally:
        probe.stop()
    print(json.dumps({"wall_s": end - args.setup_probe, "setup_s": probe.seconds(args.setup_probe, end)}))
    shutil.rmtree(OUT / f"probe-{os.getpid()}", ignore_errors=True)


def setup_probes(args):
    """Set-up of fresh processes, from spawn to inputs built."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", repr(time.monotonic())]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe exited {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def cpu_time():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Run:
    """Whole rounds of a workload's operations, timed, then checked. Every
    round repeats the same inputs."""

    def __init__(self, wl, seeds, probe):
        self.wl, self.seeds, self.probe = wl, seeds, probe
        self.times = [[] for _ in wl.cases]
        self.seconds = [[] for _ in wl.cases]
        self.problems = []
        self.attempted = self.failed = self.rounds = 0

    def round(self):
        for c, times in enumerate(self.times):
            self.attempted += 1
            start = speed.clock()
            try:
                out = self.wl.run(self.seeds[c], c)
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                self.failed += 1
                continue
            end = speed.clock()
            times.append(end - start)
            self.seconds[c].append(self.probe.seconds(start, end))
            self.problems += [f"case {c}: {p}" for p in self.wl.check(c, out)]
        self.rounds += 1

    def warm_up(self):
        """The first operation once, untimed, so that one-off costs of the
        process (the first sampled DFE estimate fills gatesynth's caches) fall
        before the rounds."""
        try:
            self.wl.run(self.seeds[0], 0)
        except Exception:  # it fails again, and is counted, in the rounds
            traceback.print_exc()

    def measure(self, seconds):
        """Rounds while another one still fits in `seconds`; returns the
        elapsed time."""
        start = speed.clock()
        while True:
            round_start = speed.clock()
            self.round()
            now = speed.clock()
            if now - start + (now - round_start) > seconds:
                return now - start

    def op_seconds(self, first=0, last=None):
        """Each operation's speed-corrected time: the median of its repeats
        over rounds [first, last)."""
        return [statistics.median(s[first:last]) for s in self.seconds if s[first:last]]


def main_workload(args):
    probes = None if args.trace else setup_probes(args)
    workloads = import_workloads()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](workdir, workers=args.workers, tracer=tracer)
    probe = speed.SpeedProbe()
    try:
        cpu0, wall0 = cpu_time(), time.perf_counter()
        wl.setup()
        cpu_setup, wall_setup = cpu_time() - cpu0, time.perf_counter() - wall0
        setup_end = len(tracer.start) if tracer else 0
        setup_counts = dict(tracer.counts) if tracer else {}
        wl.prepare_checks()
        run = Run(wl, [workloads.op_seeds(args.seed, c) for c in range(len(wl.cases))], probe)
        run.warm_up()
        rounds_start = len(tracer.start) if tracer else 0
        rounds_counts = dict(tracer.counts) if tracer else {}
        probe.start()
        cpu0 = cpu_time()
        wall = run.measure(args.seconds)
        cpu_rounds = cpu_time() - cpu0
        n = run.rounds
        if tracer:
            tracer.uninstall()
            # the rounds again, untraced: the difference is what tracing cost
            for _ in range(n):
                run.round()
        probe.stop()
        if tracer:
            overhead = sum(run.op_seconds(0, n)) - sum(run.op_seconds(n))
            metrics = tracing.layer_metrics(
                tracer, (setup_end, setup_counts), (rounds_start, rounds_counts), n,
                cpu_s=cpu_setup + cpu_rounds / n, wall_s=wall_setup + wall / n, overhead_s=overhead)
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            tracer.save(OUT / "traces" / f"{args.workload}-s{args.seed}.npz")
        else:
            ops = run.op_seconds()
            metrics = {
                "setup_s": statistics.median(p["setup_s"] for p in probes),
                "wall_s": sum(ops),
                "op_p50_s": statistics.median(ops),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": args.workers, "op_times": run.times,
            "op_seconds": run.seconds, "setup_probes": probes, "speed": probe.quantiles(),
            "problems": run.problems, "machine": machine()}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(dict(info, result=result), indent=1))
    print("run " + json.dumps(info))
    print(json.dumps(result))


def main_all(args):
    """Each workload in its own process; a table of its metrics."""
    for name in [w["name"] for w in spec()["workloads"]]:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workers", str(args.workers)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name}: exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"\n{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for key, m in result["metrics"].items():
            print(f"  {key:52s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="--workers passed to cnot-sweep (cnot_sweep only)")
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.setup_probe is not None:
        probe_setup(args)
    elif args.workload is None:
        main_all(args)
    else:
        main_workload(args)


if __name__ == "__main__":
    main()
