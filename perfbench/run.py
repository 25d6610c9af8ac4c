"""fiberlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fiberlab is imported from ``src/``.  A
run repeats whole rounds of the workload's operations (at least one, and
no new round that would end past ``--seconds``), then checks every
result outside the timed region.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with the library's
``threads=2``, and gives operation times in gauge units (see ``Gauge``),
in which the host's changing share of the core cancels out.  ``--trace 1``
runs with one worker, alternating an untraced round and a traced round,
and reports the per-layer metrics of the traced rounds (medians) and the
tracing overhead; the spans go to ``perfbench/results/``.  The exit code
is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "fiberlab").is_dir():
    # measure the checkout's own source, never an installed copy
    sys.exit(f"no fiberlab source under {ROOT / 'src'}; run from the root of a checkout")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402  (imports fiberlab from src/)
from spans import METRICS, Tracer  # noqa: E402

THREADS = 2          # nproc of the reference machine, the CLI default there
TRACE_THREADS = 1    # so every call of a traced round happens in this process
SETUP_PROBES = 9     # fresh processes timed for setup_s; the median is reported
REFERENCE_S = 0.2    # setup_s's scale: the reference process's time on the reference machine
PROBE_TIMEOUT_S = 60
RESULTS = BENCH / "results"
GAUGE_PERIOD_S = 0.005  # how often the gauge samples the core during an operation


def _gauge_loop() -> None:
    """A fixed piece of pure-Python work, about 50 microseconds on a quiet core."""
    counts: dict = {}
    for i in range(300):
        key = (i & 63, i * 3 % 17)
        counts[key] = counts.get(key, 0) + i


class Gauge:
    """Times of ``_gauge_loop``, taken between operations and, by SIGALRM, during them.

    The host lends this process a share of its core that changes from one
    millisecond to the next, and over minutes; the same operation then
    takes from one to two times as long.  The gauge slows down with it: an
    operation's time divided by the mean gauge time during and around it
    (its time in gauge units) stays put.  Handler time is taken out of the
    operation's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.busy = False

    def sample(self) -> float:
        if self.busy:  # a tick inside a sample: the sample covers it
            return 0.0
        self.busy = True
        t0 = time.perf_counter()
        _gauge_loop()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed
        self.busy = False
        return elapsed

    def restart(self) -> None:
        self.samples = []
        self.spent = 0.0

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Round:
    wall_s: float
    op_s: list[float]
    op_gauge: list[float] = field(default_factory=list)  # with a gauge: op_s in gauge units
    failed: list[str] = field(default_factory=list)   # "name: reason"
    wrong: int = 0                                     # failed checks, not errors


def run_round(ops, tracer: Tracer | None = None, gauge: Gauge | None = None) -> Round:
    """Time one pass over ``ops``, then check every result.

    With a ticking ``gauge``, each operation's time is also given in gauge
    units: divided by the mean of the gauge samples taken during it and
    the ones taken just before and just after it.
    """
    results: dict = {}
    errors: dict[str, str] = {}
    op_s, op_gauge = [], []
    start = time.perf_counter()
    before = gauge.sample() if gauge is not None else 0.0
    for index, op in enumerate(ops):
        if gauge is not None:
            gauge.restart()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                results[op.name] = op.call(results)
            else:
                with tracer.operation(index):
                    results[op.name] = op.call(results)
        except Exception as exc:  # a failed operation; the round goes on
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if gauge is not None:
            elapsed -= gauge.spent
            during = gauge.samples
            after = gauge.sample()
            op_gauge.append(elapsed / statistics.fmean([before, *during, after]))
            before = after
        op_s.append(elapsed)
    done = Round(time.perf_counter() - start, op_s, op_gauge)
    for op in ops:
        if op.name in errors:
            done.failed.append(f"{op.name}: {errors[op.name]}")
            continue
        try:
            ok = op.check(results[op.name], results)
        except Exception as exc:  # a check that cannot run fails its operation
            done.failed.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
            continue
        if not ok:
            done.wrong += 1
            done.failed.append(f"{op.name}: wrong result")
    return done


def run_rounds(seconds: float, passes) -> None:
    """Call each of ``passes`` in turn, for whole cycles, within ``seconds``.

    The first cycle always runs; another starts only if the longest cycle
    so far would still end within ``seconds``.
    """
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        for one_pass in passes:
            gc.collect()
            one_pass()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def setup_seconds(workload: str, seed: int) -> float:
    """Time from starting a fresh process to its first operation, at the reference speed.

    Each probe is followed by a reference process, ``python3 -c "import
    numpy"``, which does the same kind of work (starting the interpreter,
    loading modules) and none of fiberlab's.  The host's speed changes by
    up to half over minutes; the ratio of the two times does not.  The
    result is the median ratio times REFERENCE_S.
    """
    ratios = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        probe_s = float(probe.stdout.split()[-1]) - t0
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       capture_output=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        ratios.append(probe_s / (time.monotonic() - t0))
    return REFERENCE_S * statistics.median(ratios)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of the lattice-walk pool.

    The pool's workers are this process's only children at this point, so
    ``RUSAGE_CHILDREN`` holds the largest worker's peak; all THREADS of
    them run at once, so it counts THREADS times.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (THREADS * worker if worker else 0)) / 1024.0


def measure(args) -> tuple[list[Round], dict]:
    ops = workloads.build(args.workload, args.seed, THREADS)
    rounds: list[Round] = []
    with Gauge().ticking() as gauge:
        run_rounds(args.seconds, [lambda: rounds.append(run_round(ops, gauge=gauge))])
    rss = peak_rss_mb()  # before the set-up probes add children of their own
    metrics = {
        "setup_s": (setup_seconds(args.workload, args.seed), "s"),
        # each operation at its fastest: the gauge under-corrects some slow spells, never fast ones
        "wall_gauge": (sum(map(min, zip(*(r.op_gauge for r in rounds)))), "gauge"),
        "op_p50_gauge": (statistics.median(t for r in rounds for t in r.op_gauge), "gauge"),
        "peak_rss_mb": (rss, "MB"),
    }
    return rounds, metrics


def measure_traced(args) -> tuple[list[Round], dict]:
    ops = workloads.build(args.workload, args.seed, TRACE_THREADS)
    plain: list[Round] = []
    traced: list[tuple[Round, Tracer]] = []

    def traced_pass():
        tracer = Tracer()
        with tracer.installed():
            traced.append((run_round(ops, tracer), tracer))

    run_rounds(args.seconds, [lambda: plain.append(run_round(ops)), traced_pass])
    per_round = [tracer.metrics() for _, tracer in traced]
    metrics = {}
    for name, unit, _ in METRICS:
        if name == "trace.overhead_pct":
            plain_s = statistics.median(r.wall_s for r in plain)
            traced_s = statistics.median(r.wall_s for r, _ in traced)
            value = 100.0 * (traced_s / plain_s - 1.0)
        else:
            value = statistics.median(m[name] for m in per_round)
        metrics[name] = (value, unit)
    RESULTS.mkdir(exist_ok=True)
    traced[-1][1].dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.tsv")
    return plain + [r for r, _ in traced], metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print the monotonic clock and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workloads.build(args.workload, args.seed, THREADS)
        print(time.monotonic())
        return 0
    rounds, metrics = (measure_traced if args.trace else measure)(args)
    failures = [f for r in rounds for f in r.failed]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not any(r.wrong for r in rounds),
        "attempted": sum(len(r.op_s) for r in rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
