"""Benchmark of coupled_dynamics: runs one workload and prints one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/` of
that checkout and nothing installed elsewhere. With --trace 0 it measures
set-up time (median over several fresh processes) and then repeats timed
passes of the workload until S seconds from its start would be overrun,
and reports the end-to-end metrics (medians over passes). With --trace 1
it runs one untraced and one traced pass and reports the per-layer
metrics. Every pass is checked; the last line of stdout is {"correct",
"attempted", "failed", "metrics"}. See README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READY = "ready"
SETUP_PROBES = 7
# Set-up time is rescaled by the start-up of an interpreter that only imports
# numpy (isolated, so nothing in the checkout can change it); the host's
# speed at starting processes and importing drifts by 15 % within minutes.
# REFERENCE_START_S is about that start-up's time on the reference host.
REFERENCE_START = ("-I", "-c", f"import numpy; print({READY!r}, flush=True)")
REFERENCE_START_S = 0.115
# Pass times are rescaled to reference host speed by
# CALIBRATION_REF_S / (mean time of `calibrate()` sampled while the package
# was idle); CALIBRATION_REF_S is about that kernel's time on the reference
# host (2-core 2.1 GHz x86-64 VM, Python 3.11, numpy 2.4) when it runs at
# full speed. See README.md.
CALIBRATION_STEPS = 300
CALIBRATION_REF_S = 0.0035
HOST_SAMPLES = 10
SAMPLE_INTERVAL_S = 0.05
# A pass counts as single-threaded when threads other than the main one and
# child processes used less CPU time than this share of the pass's.
SOLO_CPU_SHARE = 0.01


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: import and build inputs, print 'ready', exit",
    )
    return p.parse_args(argv)


def require_package() -> None:
    package = ROOT / "src" / "coupled_dynamics" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a repository checkout")


def prepare(name: str, seed: int):
    """Everything before the first timed call: import the package from this
    checkout's src/ and build the workload's inputs from the seed."""
    require_package()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    return workload, workload.inputs(np.random.default_rng(seed))


def calibrate() -> float:
    """Wall time of a short fixed kernel of small-array numpy steps, the
    operation mix of the relaxation loop. It uses no coupled_dynamics code,
    so only the host's speed moves it."""
    import numpy as np

    y = np.linspace(-1.0, 1.0, 101)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        mid = y[1:-1]
        r = -(mid * mid * mid - mid - 0.01) + 25.0 * (y[2:] - 2.0 * mid + y[:-2])
        float(np.max(np.abs(r)))
        mid += 0.016 * r
    return time.perf_counter() - t0


def host_sample() -> float:
    """Mean time of HOST_SAMPLES runs of `calibrate()`, taken while no package
    code runs."""
    return statistics.fmean(calibrate() for _ in range(HOST_SAMPLES))


class HostSpeed:
    """Samples the host's speed around and during a timed call.

    A shared host's speed can change by up to 70 % within seconds, so besides
    the idle samples on entry and exit, a SIGALRM handler runs `sample`
    (`calibrate`, possibly traced) on the main thread every SAMPLE_INTERVAL_S
    during the call. While it runs, a package that works only on the main
    thread is paused, so those samples are idle too; otherwise they compete
    with the package's other threads and the caller must use `idle_scale`.
    `overhead_s` and `overhead_cpu_s` are the wall and CPU time the in-call
    samples took, which the caller subtracts first.
    """

    def __init__(self, sample=calibrate):
        self._calibrate = sample
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self.idle = [host_sample()]
        self.samples = []
        self.overhead_s = self.overhead_cpu_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a sample slower than the interval: do not nest
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(self._calibrate())
        self.overhead_s += time.perf_counter() - t0
        self.overhead_cpu_s += time.process_time() - c0
        self._busy = False

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.idle.append(host_sample())

    @property
    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.fmean(self.idle + self.samples)

    @property
    def idle_scale(self) -> float:
        return CALIBRATION_REF_S / statistics.fmean(self.idle)


def ready_seconds(cmd) -> float:
    """Time from spawning `cmd` to its READY line; the child must exit 0."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line != READY or code != 0:
        raise SystemExit(f"error: set-up probe {cmd[1:]} failed (exit {code})")
    return elapsed


def setup_seconds(args) -> float:
    """Time from spawning a fresh interpreter to the point where it is ready
    to make the first timed call, at reference host speed: the median over
    SETUP_PROBES probes of (probe time / time of the reference start-up
    spawned just before it) * REFERENCE_START_S."""
    probe = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    reference = [sys.executable, *REFERENCE_START]
    hosts, probes = [], []
    for _ in range(SETUP_PROBES):
        hosts.append(ready_seconds(reference))
        probes.append(ready_seconds(probe))
    print(
        f"set-up probes {[round(t, 3) for t in probes]} s; reference start-ups"
        f" {[round(t, 3) for t in hosts]} s",
        file=sys.stderr,
    )
    return statistics.median(p / h for p, h in zip(probes, hosts)) * REFERENCE_START_S


def cpu_seconds() -> float:
    """CPU time of this process, its threads and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_pass(workload, inputs, sample=calibrate):
    """One pass with its wall and CPU time at reference host speed, and the
    rescaling factor used. The factor comes from every host-speed sample if
    the package ran on the main thread alone, and from the samples before
    and after the pass if it did not."""
    with HostSpeed(sample) as speed:
        w0, c0, m0 = time.perf_counter(), cpu_seconds(), time.thread_time()
        out = workload.run(inputs)
        wall = time.perf_counter() - w0
        cpu, main_cpu = cpu_seconds() - c0, time.thread_time() - m0
    scale = speed.scale
    if cpu - main_cpu > SOLO_CPU_SHARE * cpu:
        scale = speed.idle_scale
        print(
            f"note: {cpu - main_cpu:.3f} s of the pass's CPU time ran off the main"
            " thread; host speed taken from idle samples only",
            file=sys.stderr,
        )
    wall = (wall - speed.overhead_s) * scale
    return out, wall, (cpu - speed.overhead_cpu_s) * scale, scale


def declared(values: dict, kind: str) -> dict:
    """Attach units from BENCHMARK.json; computed and declared names must match."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)[kind]
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        missing, extra = set(names) - set(values), set(values) - set(names)
        raise SystemExit(f"error: {kind} metrics differ: missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(workload, inputs, deadline: float):
    """Timed passes until another one would overrun `deadline`, a
    `time.perf_counter()` value (at least one)."""
    walls, cpus, scales, tallies = [], [], [], []
    while True:
        t0 = time.perf_counter()
        out, wall, cpu, scale = timed_pass(workload, inputs)
        walls.append(wall)
        cpus.append(cpu)
        scales.append(scale)
        tallies.append(workload.check(inputs, out))
        pass_s = time.perf_counter() - t0
        if time.perf_counter() + pass_s > deadline:
            break
    print(
        f"{len(walls)} passes; wall_s {[round(w, 3) for w in walls]} at reference"
        f" speed; host speed factors {[round(s, 3) for s in scales]}",
        file=sys.stderr,
    )
    return out, walls, cpus, tallies


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print(READY, flush=True)
        return 0

    require_package()
    setup_s = None if args.trace else setup_seconds(args)
    workload, inputs = prepare(args.workload, args.seed)

    if args.trace:
        import spans
        import workloads

        out, wall, _, _ = timed_pass(workload, inputs)
        tallies = [workload.check(inputs, out)]
        tracer = spans.Tracer()
        tracer.install()
        # The host-speed samples get a span of their own, so that their time
        # is not charged to whichever package span they interrupt.
        try:
            out, traced_wall, _, scale = timed_pass(
                workload, inputs, tracer.wrap("host.calibrate", calibrate)
            )
        finally:
            tracer.uninstall()
        tally = workload.check(inputs, out)
        tallies.append(tally)
        per_layer = {
            k: v * scale if k.endswith("_s") else v for k, v in tracer.metrics().items()
        }
        per_layer["host.speed_factor"] = scale
        per_layer["trace.overhead_s"] = traced_wall - wall
        per_layer["unresolved_frac"] = tally.unresolved / tally.attempted
        per_layer["stationary.fi_spread"] = tally.fi_spread
        tracer.dump(workloads.output_dir() / f"spans-{args.workload}-{args.seed}.json")
        values = per_layer
    else:
        # --seconds covers the set-up probes too, so a run's length does not
        # grow with the host's start-up time.
        out, walls, cpus, tallies = measure(workload, inputs, start + args.seconds)
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    final_check = getattr(workload, "final_check", None)
    if final_check is not None and not final_check(inputs, out):
        failed = attempted
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": declared(values, "per_layer" if args.trace else "end_to_end"),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
