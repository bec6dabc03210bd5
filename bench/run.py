"""qplane benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload classify_sweep --seed 1 --seconds 20 --trace 0

The workload runs closed-loop in one fresh process: one caller, no
threads, each task started when the previous one returned.  A warm-up pass
fills qplane's caches and checks every output exactly; it is not timed.
Timed passes then repeat the same inputs until ``--seconds`` is used up;
every output must equal the checked warm-up output.  A fixed big-integer
loop runs between tasks and, on a timer, during them; task times are
rescaled to the reference speed of that loop (``reference.json``), so host
drift largely cancels.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones: spans around every public qplane function, recorded
from outside the library (see tracing.py).  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("commutant_elim", "classify_sweep", "generic_q")
# orders of q whose FieldContexts each workload builds during set-up
SETUP_ORDERS = {"commutant_elim": (3, 5), "classify_sweep": (2, 3, 4, 5),
                "generic_q": ("inf",)}
SETUP_RUNS = 9
TAIL_BEYOND = 10   # the tail percentile keeps at least this many tasks above it


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

_CAL_A = 3 ** 200 + 7
_CAL_B = 5 ** 150 + 11
_CAL_M = 7 ** 300
_CAL_OPS = 600
SAMPLE_INTERVAL_S = 0.1   # calibration period while a task runs
CALIB_WINDOW = 4          # between-task calibration samples before a task


def calibrate() -> float:
    """Seconds for a fixed exact-arithmetic loop that uses no qplane code.

    Multiply-add-reduce on 500-bit integers, keeping every result: big-int
    arithmetic and allocation, the work under qplane's Fractions.  On a
    2-core VM its time tracked qplane's task times under host drift more
    closely than a loop of small Fraction operations did.
    """
    start = perf_counter()
    acc = 0
    kept = []
    for i in range(_CAL_OPS):
        acc = (acc * _CAL_A + _CAL_B) % _CAL_M
        kept.append((acc, i))
    return perf_counter() - start


def load_json(path: Path):
    return json.loads(path.read_text())


def require_source():
    """Exit 2 unless the checkout's own qplane sources are importable."""
    if not (SRC / "qplane" / "__init__.py").is_file():
        print(f"error: no qplane sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qplane
    if Path(qplane.__file__).resolve().parent != (SRC / "qplane").resolve():
        print(f"error: imported qplane from {qplane.__file__}", file=sys.stderr)
        sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# role: setup (fresh interpreter)
# ---------------------------------------------------------------------------

def role_setup(workload: str):
    start = perf_counter()
    require_source()
    import qplane.cli  # noqa: F401  (the import is what is timed)
    from qplane.scalars import FieldContext, INFINITE
    for ell in SETUP_ORDERS[workload]:
        FieldContext.for_order(INFINITE if ell == "inf" else ell)
    setup = perf_counter() - start
    calib = statistics.median(calibrate() for _ in range(15))
    print(json.dumps({"setup_s": setup, "calib_s": calib}))


def measure_setup(workload: str, calib_ref: float):
    """Median normalized set-up time over fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--role", "setup", "--workload", workload]
    values = []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(2)
        if k == 0:
            continue   # the first import also writes bytecode caches
        got = json.loads(done.stdout.strip().splitlines()[-1])
        values.append(got["setup_s"] * calib_ref / got["calib_s"])
    return statistics.median(values)


# ---------------------------------------------------------------------------
# role: workload (fresh interpreter)
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Calibration samples taken while a task runs.

    A SIGALRM timer interrupts the task every SAMPLE_INTERVAL_S and runs
    calibrate() in the handler, so a long task is rescaled by the host speed
    during it rather than at its ends.  The handler's own time is subtracted
    from the task, and from the innermost open span when tracing.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self.tracer = None
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(calibrate())
        spent = perf_counter() - start
        self.stolen += spent
        if self.tracer is not None and self.tracer.stack:
            self.tracer.stack[-1].excluded += spent

    def run(self, task, inputs, tracer, key):
        """Run one task; returns (output, seconds, samples, error or None)."""
        self.samples = []
        self.stolen = 0.0
        self.tracer = tracer
        if tracer is not None:
            tracer.task = key
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            out = task.run(inputs)
            err = None
        except Exception as exc:   # a raising task is a failed task, not a crash
            out = None
            err = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start - self.stolen
        if tracer is not None:
            tracer.task = None
        return out, elapsed, self.samples, err


class Runner:
    def __init__(self, tasks, calib_ref):
        self.probe = SpeedProbe()
        self.tasks = tasks
        self.calib_ref = calib_ref
        self.refs = [None] * len(tasks)
        self.bad = [False] * len(tasks)
        self.attempted = 0
        self.failures = []

    def fail(self, k, err):
        self.failures.append(f"{self.tasks[k].name}: {err}")

    def warm_up(self):
        """Untimed pass: fills caches and checks every output exactly."""
        for k, task in enumerate(self.tasks):
            self.attempted += 1
            inputs = task.make()
            out, _, _, err = self.probe.run(task, inputs, None, k)
            if err is None:
                try:
                    err = task.check(inputs, out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                self.bad[k] = True
                self.fail(k, err)
            self.refs[k] = out

    def timed_pass(self, tracer=None, pass_no=0):
        """One pass; returns (raw seconds per task, normalized seconds per
        task, calibration samples).  Each task is rescaled by the median of
        the calibration samples taken during it, just after it, and before
        it (the last CALIB_WINDOW between-task samples, which steadies the
        scale of tasks too short to be interrupted)."""
        between = [calibrate()]
        calibs = list(between)
        raw = []
        norm = []
        for k, task in enumerate(self.tasks):
            inputs = task.make()
            self.attempted += 1
            before = between[-CALIB_WINDOW:]
            out, elapsed, during, err = self.probe.run(task, inputs, tracer, (pass_no, k))
            between.append(calibrate())
            calibs.extend(during)
            calibs.append(between[-1])
            speed = statistics.median([*before, *during, between[-1]])
            norm.append(elapsed * self.calib_ref / speed)
            if err is None and self.bad[k]:
                err = "failed its warm-up check"
            if err is None and out != self.refs[k]:
                err = "output differs from the checked warm-up output"
            if err is not None:
                self.fail(k, err)
            raw.append(elapsed)
        return raw, norm, calibs

    def passes(self, seconds, minimum, tracer=None):
        """Timed passes until `seconds` is used, starting a pass only while at
        least half a pass fits."""
        results = []
        start = perf_counter()
        while True:
            results.append(self.timed_pass(tracer, len(results)))
            used = perf_counter() - start
            if len(results) >= minimum and seconds - used < used / len(results) / 2:
                return results


def tail_rank(n: int):
    """Highest whole percentile with at least TAIL_BEYOND of n values above
    it, and the 1-based nearest rank it selects."""
    pct = math.floor(100 * (n - TAIL_BEYOND) / n) if n > TAIL_BEYOND else 50
    return pct, max(1, math.ceil(pct / 100 * n))


def summarize(results):
    """norm_s, p50 and tail from each task's median over the passes."""
    per_task = [statistics.median(col) for col in zip(*(norm for _, norm, _ in results))]
    ordered = sorted(per_task)
    pct, rank = tail_rank(len(ordered))
    return {
        "norm_s": sum(per_task),
        "task_p50_ms": 1000 * statistics.median(per_task),
        "task_tail_ms": 1000 * ordered[rank - 1],
        "tail_pct": pct,
        "tasks": len(ordered),
    }


def role_workload(args):
    require_source()
    import resource
    import workloads
    reference = load_json(BENCH / "reference.json")
    calib_ref = reference["calib_s"]
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = workloads.WORKLOADS[args.workload](args.seed, reference["homext"], workdir)
    runner = Runner(tasks, calib_ref)
    runner.warm_up()
    result = {}
    if not args.trace:
        timed = runner.passes(args.seconds, 2)
        result.update(summarize(timed))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracing import Tracer
        timed = runner.passes(args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.passes(args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer, traced, calib_ref)
        layers["bench.trace_overhead"] = summarize(traced)["norm_s"] / summarize(timed)["norm_s"]
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["span_count"] = len(tracer.spans)
        result["top_layers"] = top_layers(layers)
    result["passes"] = len(timed)
    result["wall_s"] = statistics.median(sum(raw) for raw, _, _ in timed)
    result["calib_ms"] = 1000 * statistics.median(c for _, _, calibs in timed for c in calibs)
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:20]
    print(json.dumps(result))


def layer_metrics(tracer, traced, calib_ref):
    """Per-pass layer numbers from the traced passes, at reference speed."""
    passes = len(traced)
    factors = {}
    for p, (raw, norm, _) in enumerate(traced):
        for k, (t, n) in enumerate(zip(raw, norm)):
            factors[(p, k)] = n / t if t else 1.0
    per_name, ops = tracer.aggregate(factors)
    out = {}
    for name, (calls, self_s) in per_name.items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.s"] = self_s / passes
    replay_factor = calib_ref / statistics.median(calibrate() for _ in range(9))
    for regime in ("cyc", "gen"):
        for op in ("mul", "add", "inverse"):
            key = f"{regime}.{op}"
            out[f"scalars.{key}.calls"] = ops.get(key, 0) / passes
            per_op = tracer.replay(key)
            out[f"scalars.{key}.us"] = 0.0 if per_op is None else 1e6 * per_op * replay_factor
    out["matrices.elim.entries"] = tracer.elim_entries / passes
    out["matrices.elim.density"] = (tracer.elim_nonzero / tracer.elim_entries
                                    if tracer.elim_entries else 0.0)
    return out


def top_layers(layers, count=8):
    """The largest self times, as (span name, share of all span self time)."""
    selfs = {k[:-2]: v for k, v in layers.items()
             if k.endswith(".s") and not k.startswith("bench.")}
    total = sum(selfs.values()) or 1.0
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])[:count]
    return [(name, value / total) for name, value in ranked]


# ---------------------------------------------------------------------------
# role: main (orchestrates the fresh processes)
# ---------------------------------------------------------------------------

def spawn_workload(args):
    cmd = [sys.executable, str(BENCH / "run.py"), "--role", "workload",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        print(f"error: workload process exited {done.returncode}", file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main_role(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    require_source()
    reference = load_json(BENCH / "reference.json")
    setup_s = measure_setup(args.workload, reference["calib_s"])
    res = spawn_workload(args)
    probes = None
    if args.workload == "classify_sweep":
        from probes import run_probes
        workdir = OUT / "work"
        workdir.mkdir(parents=True, exist_ok=True)
        probes = run_probes(workdir, child_env())

    print(f"workload {args.workload} seed {args.seed} timed passes {res['passes']}")
    print(f"raw pass {res['wall_s']:.4g} s, calibration {res['calib_ms']:.4g} ms "
          f"(reference {1000 * reference['calib_s']:.4g} ms)")
    for line in res["failures"]:
        print(f"FAILED {line}")
    failed_share = res["failed"] / res["attempted"]
    print(f"failed_share {failed_share:.6g} share ({res['failed']} of {res['attempted']} tasks)")
    probes_failed = None
    if probes is not None:
        probes_failed = sum(1 for _, ok, _ in probes if not ok)
        for name, ok, detail in probes:
            print(f"probe {name}: {'ok' if ok else 'FAILED'} ({detail})")
        print(f"probes_failed {probes_failed} count")

    metrics = {}
    if not args.trace:
        values = dict(res, setup_s=setup_s)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            extra = ""
            if m["name"] == "task_tail_ms":
                extra = f" (p{res['tail_pct']} over {res['tasks']} tasks)"
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}{extra}")
    else:
        layers = dict(res["layers"])
        layers["bench.wall_s"] = res["wall_s"]
        layers["bench.calib_ms"] = res["calib_ms"]
        layers["bench.probes_failed"] = probes_failed or 0
        for name, share in res["top_layers"]:
            print(f"top layer {name}: {100 * share:.1f}% of traced self time")
        for m in spec["per_layer"]:
            value = layers.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} {value:.6g} {m['unit']}")
        print(f"spans {res['span_count']} written to {res['spans_file']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "workload"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.role == "setup":
        role_setup(args.workload)
    elif args.role == "workload":
        role_workload(args)
    else:
        main_role(args)


if __name__ == "__main__":
    main()
