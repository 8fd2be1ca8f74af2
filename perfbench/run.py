"""tracebracket benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed makes the workload's inputs (see ``workloads.py``),
which are written under ``perfbench/.work/`` and removed at exit.  One
client runs the fixed job set closed-loop, one job after another, in rounds
until the next round would end past ``--seconds``.  Every job's output is
checked; failures named in ``known_failures.json`` are counted in
``failed`` but do not make the run incorrect.

Times are reference seconds (``speed.py``): wall time scaled by a probe
kernel run around each job, so that a shared machine's speed swings do not
show as changes of the program.

With ``--trace 0`` the last line reports the end-to-end metrics: set-up time
(median of several set-ups: package import in a fresh interpreter plus
input generation), run time (sum over jobs of each job's median time over
the rounds), the median and 90th percentile of those per-job times, and
peak RSS.  With ``--trace 1`` untraced and traced rounds alternate and the
last line reports per-layer self times and work counts from the traced
rounds (see ``tracing.py``), the tracing overhead (traced minus untraced
round time) and the rings micro-measurement.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

_now = time.perf_counter
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "job_s.p50": "s", "job_s.p90": "s",
                    "peak_rss_mb": "MB"}


def import_package():
    if not (SRC / "tracebracket" / "__init__.py").is_file():
        sys.exit(f"error: no tracebracket sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracebracket
    if Path(tracebracket.__file__).resolve().parent != SRC / "tracebracket":
        sys.exit(f"error: imported tracebracket from {tracebracket.__file__}, not {SRC}")


IMPORT_TIMER = """
import sys
sys.path[:0] = sys.argv[1:]
import speed
print(speed.ScaledClock().time(lambda: __import__("tracebracket"))[2])
"""


def import_seconds() -> float:
    """Reference seconds a fresh interpreter takes to import the package,
    as a user's first call does; interpreter start-up is not counted."""
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    return float(out.stdout)


def run_job(job, cli):
    """(ok, output): the JSON text a CLI job prints or a library job's value;
    on failure, what went wrong."""
    if job.argv is None:
        try:
            return True, job.call()
        except Exception as e:     # a raising job is a failed job, not a crash
            return False, f"{type(e).__name__}: {e}"
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(job.argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:
        return False, f"{type(e).__name__}: {e}"
    if rc != 0:
        return False, f"exit {rc}: {err.getvalue().strip()}"
    return True, out.getvalue()


def run_round(wl, cli, clock, tracer=None, summarize=True):
    """Run every job once.  Returns (round reference seconds, reference
    seconds per wall second, per-job reference seconds, outcomes).  An
    outcome is (ok, what the check needs or None unless ``summarize``,
    fingerprint of the whole output); only that much is kept, so that peak
    memory is the program's.  Speed probes are not part of the round."""
    outcomes, times, wall = {}, [], 0.0
    first_probe = len(clock.probes)
    clock.restart()
    for job in wl.jobs:
        if tracer is None:
            (ok, out), job_wall, scaled = clock.time(lambda: run_job(job, cli))
        else:
            tracer.job = job.id
            span = tracer.open("job")
            try:
                (ok, out), job_wall, scaled = clock.time(lambda: run_job(job, cli))
            finally:
                tracer.close(span)
        if ok and job.argv is not None:
            summary = wl.summarize(json.loads(out)["result"]) if summarize else None
            outcomes[job.id] = (ok, summary, zlib.crc32(out.encode()))
        else:
            outcomes[job.id] = (ok, out, repr(out))
        times.append(scaled)
        wall += job_wall
        clock.restart()
    scale = clock.factor_since(first_probe)
    return wall * scale, scale, times, outcomes


def known_failure(attrs: dict, known: list) -> bool:
    """Does a failure match an entry of known_failures.json?  A list in an
    entry's ``match`` allows any of its values."""
    return any(all(attrs.get(k) == v or (isinstance(v, list) and attrs.get(k) in v)
                   for k, v in entry["match"].items())
               for entry in known)


class Rounds:
    """What the measured rounds of one run produced."""

    def __init__(self, n_jobs: int):
        self.plain, self.traced, self.tracers = [], [], []
        self.job_times = [[] for _ in range(n_jobs)]
        self.first = None
        self.unsteady = set()

    def add(self, outcomes) -> None:
        if self.first is None:
            self.first = outcomes
        self.unsteady |= {j for j, o in outcomes.items()
                          if (o[0], o[2]) != (self.first[j][0], self.first[j][2])}

    @property
    def count(self) -> int:
        return len(self.plain) + len(self.traced)


def measure(wl, cli, clock, seconds: float, traced: bool) -> Rounds:
    import tracing
    rounds = Rounds(len(wl.jobs))
    deadline = _now() + seconds
    while True:
        started = _now()
        wall, _scale, times, outcomes = run_round(wl, cli, clock,
                                                  summarize=rounds.first is None)
        rounds.plain.append(wall)
        rounds.add(outcomes)
        for samples, t in zip(rounds.job_times, times):
            samples.append(t)
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, scale, _times, outcomes = run_round(wl, cli, clock, tracer,
                                                          summarize=False)
            finally:
                tracer.uninstall()
            rounds.traced.append(wall)
            rounds.tracers.append((tracer, scale))
            rounds.add(outcomes)
        if 2 * _now() - started > deadline:     # the next round would end late
            return rounds


def layer_metrics(wl, rounds: Rounds, ok_outputs, clock):
    """(per-layer metrics of a traced run, whether every traced round did
    the same work)."""
    import tracing
    per_round = [t.layer_metrics(scale) for t, scale in rounds.tracers]
    counts = [{k: r[k] for k in tracing.COUNT_METRICS} for r in per_round]
    metrics = {k: median(r[k] for r in per_round) if tracing.unit_of(k) == "s" else v
               for k, v in per_round[0].items()}
    tables = wl.ring_tables(ok_outputs)
    for name in tracing.RING_METRICS:
        kind = name.rsplit(".", 1)[1]
        clock.restart()
        ns, wall, scaled = clock.time(
            lambda: tracing.ring_op_ns([t for t in tables if _ring_kind(t) == kind]))
        metrics[name] = ns * scaled / wall      # in reference nanoseconds
    metrics["tracing_overhead_s"] = median(rounds.traced) - median(rounds.plain)
    return metrics, all(c == counts[0] for c in counts)


def _ring_kind(table) -> str:
    from tracebracket.rings import ModElement
    return "mod" if isinstance(table[0][0][0], ModElement) else "laurent"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["invariant", "count", "search", "trace"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_package()
    import tracebracket.cli as cli
    import speed
    import tracing
    import workloads

    known = [e for e in json.loads((HERE / "known_failures.json").read_text())
             if e["workload"] == args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    clock = speed.ScaledClock()
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            imported = import_seconds()
            clock.restart()
            wl, _wall, scaled = clock.time(
                lambda: workloads.BUILDERS[args.workload](args.seed, workloads.Files(work)))
            setups.append(imported + scaled)
        rounds = measure(wl, cli, clock, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = {j: {"check": "exit", "detail": o[1]} for j, o in rounds.first.items() if not o[0]}
    ok_outputs = {j: o[1] for j, o in rounds.first.items() if o[0]}
    failures.update(wl.check(ok_outputs))
    failures.update({j: {"check": "repeatable"} for j in rounds.unsteady if j not in failures})
    unknown = {j for j, attrs in failures.items() if not known_failure(attrs, known)}

    if args.trace:
        metrics, counts_repeat = layer_metrics(wl, rounds, ok_outputs, clock)
        units = {k: tracing.unit_of(k) for k in metrics}
    else:
        counts_repeat = True
        per_job = [median(samples) for samples in rounds.job_times]
        metrics = {
            "setup_s": median(setups),
            "run_s": sum(per_job),
            "job_s.p50": median(per_job),
            "job_s.p90": quantiles(per_job, n=10)[8],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    attempted = len(wl.jobs) * rounds.count
    failed = len(failures) * rounds.count
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(wl.jobs)}  "
          f"rounds {rounds.count}  round s "
          + " ".join(f"{w:.3f}" for w in rounds.plain + rounds.traced))
    print("  times are reference seconds (speed.py)")
    if not args.trace:
        print(f"  job latency: median of {len(rounds.plain)} rounds per job, "
              f"percentiles over {len(wl.jobs)} jobs")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    print(f"  failed_ratio                 {failed / attempted:.6g} "
          f"({failed} of {attempted} job runs)")
    for j, attrs in sorted(failures.items()):
        print(f"  {'UNEXPECTED' if j in unknown else 'known'} failure {j}: {attrs}")
    if not counts_repeat:
        print("  work counts differ between traced rounds")
    print(json.dumps({
        "correct": not unknown and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
