"""The schurhopf benchmark: one seeded workload per run, outputs checked.

Usage, from the root of a checkout (the package is imported from ./src)::

    python3 schurbench/run.py --workload lr_cold --seed 1 --seconds 55 --trace 0
    python3 schurbench/run.py --workload all --seconds 55   # every workload
    python3 schurbench/run.py --workload all --smoke        # quick self-test

Each run is one process and one thread; every loop is closed (the next call
starts when the last one returned).  A run builds the workload's batch from
the seed, runs one untimed pass whose outputs are checked against
independent references, and repeats timed passes until --seconds have gone
since it started (set-up and the untimed pass included); every later output
must equal the checked one.  `failed` counts the op executions whose
output was wrong.  After each timed pass it also times one fresh interpreter
that imports schurhopf and runs a trivial `cli.main` command (`setup_s`).

On a shared host the CPU slows by up to 1.6x for a second or more at a
time, several times a minute, so the median of whole passes moves by tens
of percent from run to run.  The fastest time of a short piece of work over
many repeats moves much less, so each op's latency is its fastest time over
the timed passes, and a pass is timed as the sum of those: the time one
pass takes when the host does not slow it down.  Spells of a minute or more
in which the host stays slow still raise the fastest times of long ops,
such as verify_all's biggest checks.

BENCHMARK.json runs verify_all and lr_cold only.  On a shared two-CPU host
the fastest times of verify_all's long checks settle only after ten or more
passes, about a minute, and the time allowed for all the runs of the
benchmark leaves room for two workloads of that length.  classical_cold and
evaluate stay runnable by name; the layers they isolate (char_rings, series
and evaluate) are entered by verify_all as well.

--trace 0 prints the end-to-end metrics:
  wall_s       time of one pass over the batch: the sum over its ops of
               each op's fastest time over the timed passes
  op_p50_ms    median over the batch's ops of each op's fastest time
               (the number of ops is printed)
  op_p90_ms    90th percentile of the same
  peak_rss_mb  peak resident memory of this process
  setup_s      median time of a fresh interpreter importing schurhopf and
               running one cli.main command

--trace 1 alternates untraced and traced passes and prints per-layer
metrics of the traced ones (medians over passes), each with the end-to-end
metric it should move:
  partition.constructions                      wall_s on verify_all
  lrkernel.calls/.busy_s/.terms_out            wall_s, op_p50_ms on lr_cold;
                                               wall_s on classical_cold
  lr.calls/.self_s, lr.*.hit_ratio,
  lr.skew.pieri                                wall_s, peak_rss_mb on verify_all;
                                               op_p50_ms on lr_cold
  schur_ring.calls/.self_s                     wall_s on verify_all
  series.calls/.self_s/.term.hit_ratio,
  char_rings.calls/.self_s                     wall_s on verify_all; wall_s,
                                               op_p90_ms on classical_cold
  evaluate.calls/.self_s                       wall_s on verify_all (its Cauchy
                                               checks) and on evaluate
  verify.{tables,series,hopf,cauchy}_s         wall_s on verify_all
  cli.import_s/.main_s                         setup_s
  trace.overhead                               median traced pass over median
                                               untraced pass
A layer's metrics are 0 on a workload that never enters it.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the kernel and
why it was chosen, the Python version, nproc, SCHURHOPF_CACHE_SIZE, the
weight limit, the seed and a digest of the generated inputs.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify_all", "lr_cold", "classical_cold", "evaluate")

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "partition.constructions": "count",
    "lrkernel.calls": "count",
    "lrkernel.busy_s": "s",
    "lrkernel.terms_out": "count",
    "lr.calls": "count",
    "lr.self_s": "s",
    "lr.product.hit_ratio": "ratio",
    "lr.skew.hit_ratio": "ratio",
    "lr.coefficient.hit_ratio": "ratio",
    "lr.skew.pieri": "count",
    "schur_ring.calls": "count",
    "schur_ring.self_s": "s",
    "series.calls": "count",
    "series.self_s": "s",
    "series.term.hit_ratio": "ratio",
    "char_rings.calls": "count",
    "char_rings.self_s": "s",
    "evaluate.calls": "count",
    "evaluate.self_s": "s",
    "verify.tables_s": "s",
    "verify.series_s": "s",
    "verify.hopf_s": "s",
    "verify.cauchy_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead": "ratio",
}

SETUP_RUNS = 7
MIN_PASSES = 4  # timed passes at least
MIN_TRACE_PASSES = 3  # of each kind, under trace
SETUP_CHILD = r"""
import io, json, sys, time
from contextlib import redirect_stdout
t0 = time.perf_counter()
import schurhopf
from schurhopf import cli
t1 = time.perf_counter()
out = io.StringIO()
with redirect_stdout(out):
    code = cli.main(["schur", "mul", "1", "1"])
t2 = time.perf_counter()
print(json.dumps({"file": schurhopf.__file__, "code": code, "out": out.getvalue(),
                  "import_s": t1 - t0, "main_s": t2 - t1}))
"""
SETUP_EXPECTED = "{2}+{1^2}\n"


class SetupTimer:
    """Times fresh interpreters that import schurhopf and run one trivial
    cli.main command.  The first run only warms the bytecode cache.  The
    runs are spread over the whole measurement (one after each timed pass)
    so that a few seconds of host noise cannot skew all of them at once."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples = []  # (wall, import_s, main_s)
        self._run()

    def _run(self):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        report = json.loads(proc.stdout) if proc.returncode == 0 else {}
        if (report.get("code") != 0 or report.get("out") != SETUP_EXPECTED
                or not Path(report["file"]).resolve().is_relative_to(SRC)):
            raise RuntimeError(f"setup command failed: {proc.stdout!r} {proc.stderr!r}")
        return wall, report["import_s"], report["main_s"]

    def sample(self) -> None:
        self.samples.append(self._run())

    def results(self) -> dict:
        walls, imports, mains = zip(*self.samples)
        return {
            "setup_s": statistics.median(walls),
            "cli.import_s": statistics.median(imports),
            "cli.main_s": statistics.median(mains),
        }


def kernel_report(lr) -> dict:
    """Which kernel lr selected, and why."""
    requested = os.environ.get("SCHURHOPF_KERNEL", "").strip().lower() or "auto"
    present = importlib.util.find_spec("schurhopf._lrkernel") is not None
    kernel = lr.kernel_name()
    if requested != "auto":
        why = f"forced by SCHURHOPF_KERNEL={requested}"
    elif kernel == "cython":
        why = "auto: the compiled extension imports"
    elif present:
        why = "auto: the compiled extension is present but does not import"
    else:
        why = "auto: no compiled extension is built"
    return {"kernel": kernel, "why": why, "SCHURHOPF_KERNEL": requested,
            "compiled_extension_present": present}


class Measurement:
    """Runs passes of one workload and accumulates what the result needs."""

    def __init__(self, workload, clear_caches):
        self.workload = workload
        self.clear_caches = clear_caches
        self.reference = None
        self.reference_ok = None
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None):
        gc.collect()
        self.clear_caches()
        clear = self.clear_caches
        if tracer is not None:
            tracer.reset()
            tracer.install()

            def clear():
                tracer.harvest()
                self.clear_caches()
        try:
            t0 = perf_counter()
            outputs, latencies = self.workload.run_pass(clear)
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.harvest()
                tracer.uninstall()
        self._count(outputs)
        return wall, latencies

    def _count(self, outputs) -> None:
        if self.reference is None:
            # the warm-up pass: checked against independent references
            self.reference = outputs
            self.reference_ok = self.workload.check(outputs)
            if len(self.reference_ok) != len(outputs):
                raise RuntimeError("check returned a verdict per op of the wrong length")
            bad = sum(1 for ok in self.reference_ok if not ok)
        else:
            bad = sum(
                1 for out, ref, ok in zip(outputs, self.reference, self.reference_ok)
                if not ok or out != ref
            )
        self.attempted += len(outputs)
        self.failed += bad


def measure(workload, clear_caches, setup, deadline: float, trace: bool, min_passes: int,
            min_setups: int):
    """Warm-up pass, then timed passes until `deadline` (alternating untraced
    and traced ones under trace).  Returns the Measurement, the untraced
    passes as (wall, latencies), the traced ones as (wall, snapshot), and
    any trace accounting errors."""
    from tracing import Tracer, accounting_errors

    m = Measurement(workload, clear_caches)
    m.run_pass()
    tracer = Tracer() if trace else None
    untraced, traced, errors = [], [], []
    while True:
        started = perf_counter()
        if trace and len(traced) < len(untraced):
            wall, _ = m.run_pass(tracer)
            snap = tracer.snapshot()
            errors += accounting_errors(snap, wall)
            traced.append((wall, snap))
        else:
            untraced.append(m.run_pass())
        setup.sample()
        # Stop where one more pass like this one would end past the deadline.
        now = perf_counter()
        if (2 * now - started >= deadline and len(untraced) >= min_passes
                and (not trace or len(traced) >= min_passes)):
            break
    while len(setup.samples) < min_setups:
        setup.sample()
    return m, untraced, traced, errors


def run_one(args) -> int:
    deadline = perf_counter() + args.seconds
    sys.path.insert(0, str(SRC))
    import schurhopf
    from schurhopf import lr
    from schurhopf.partition import get_weight_limit

    if not Path(schurhopf.__file__).resolve().is_relative_to(SRC):
        print(f"schurbench: imported schurhopf from {schurhopf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.smoke:
        min_passes = 1
    else:
        min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
    setup_timer = SetupTimer()
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    m, untraced, traced, errors = measure(
        workload, workloads.clear_caches, setup_timer, deadline, bool(args.trace),
        min_passes, 2 if args.smoke else SETUP_RUNS)
    setup = setup_timer.results()
    setup_runs = len(setup_timer.samples)
    pass_wall_s = statistics.median(wall for wall, _ in untraced)
    fastest = [min(op) for op in zip(*(lat for _, lat in untraced))]

    if args.trace:
        snaps = [snap for _, snap in traced]
        values = {name: statistics.median(s[name] for s in snaps)
                  for name in PER_LAYER if name in snaps[0]}
        values["cli.import_s"] = setup["cli.import_s"]
        values["cli.main_s"] = setup["cli.main_s"]
        values["trace.overhead"] = statistics.median(w for w, _ in traced) / pass_wall_s
        units = PER_LAYER
        notes = {name: f"median of {len(traced)} traced passes" for name in values}
        notes["trace.overhead"] = f"over {len(untraced)} untraced passes"
    else:
        ms = [t * 1e3 for t in fastest]
        values = {
            "wall_s": sum(fastest),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup["setup_s"],
        }
        units = END_TO_END
        notes = {
            "wall_s": f"sum of n={len(ms)} ops, each the fastest of {len(untraced)} passes",
            "op_p50_ms": f"n={len(ms)} ops, each the fastest of {len(untraced)} passes",
            "op_p90_ms": f"n={len(ms)} ops",
            "setup_s": f"median of {setup_runs} fresh interpreters",
        }
    for name in ("cli.import_s", "cli.main_s"):
        notes[name] = f"median of {setup_runs} fresh interpreters"
    for err in errors:
        print(f"schurbench: trace accounting: {err}", file=sys.stderr)

    print(f"schurbench {workload.name} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:26} {values[name]:>16.6f} {unit:6} {note}")
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "input_digest": workload.digest(),
        "ops_per_pass": len(m.reference),
        "pass_walls_s": [wall for wall, _ in untraced],
        "run_seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "SCHURHOPF_CACHE_SIZE": os.environ.get("SCHURHOPF_CACHE_SIZE", "") or "default",
        "weight_limit": get_weight_limit(),
        **kernel_report(lr),
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": m.failed == 0 and not errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"schurbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="how long a run lasts, set-up included (default 55)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny batches and minimal repeats, to test the benchmark itself")
    args = ap.parse_args(argv)
    if not (SRC / "schurhopf" / "__init__.py").is_file():
        print(f"schurbench: no schurhopf sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
