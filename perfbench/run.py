"""copsurv benchmark: time to a scored, checked fit, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload arm_linear_clayton --seed 0 --seconds 16 --trace 0

One run measures one workload in one process.  It sets up (interpreter
start, imports, fixed inputs, warm-up) and then runs passes for about
``--seconds`` seconds, at least three.  Pass 0 runs on the reference seed 0
and supplies the accuracy metrics, so they are identical on every run of
the same code; later passes run on the inputs of ``--seed``, and each pass
after the first on a seed must reproduce that pass's outputs exactly.
Every pass does the same amount of work, so timings are medians over all
passes, scaled to a reference machine speed by the yardstick in
calibration.py.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every file a run
writes goes to a temporary directory under ``perfbench/_tmp`` that is
removed at exit.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_PARENT = HERE / "_tmp"
REFERENCE_SEED = 0
MIN_PASSES = 3
SETUP_CHILDREN = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("arm_linear_clayton", "arm_mlp_mixture", "cli_data_eval")
FIT_SPANS = ("training.fit", "training.fit_marginal")

# (name, unit) of the result line of an untraced run; BENCHMARK.json lists
# the same names.
END_TO_END = (
    ("wall_s", "s"),
    ("fit_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tau_abs_err", "abs"),
    ("survival_l1_event", "abs"),
)
# error_rate and l1_gap are printed beside them but kept off the result
# line: error_rate is the line's own failed / attempted and is 0 on working
# code, and l1_gap exists on the arm workloads only.

UNCONTROLLED = (
    "CPUs shared with other processes or tenants whose load varies "
    "(timings are scaled by calibration.py)",
    "no CPU pinning and no frequency control",
    "no page-cache drop between runs",
)


def seconds_since_process_start() -> float:
    """Wall time since this process started, from /proc (10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    with open("/proc/uptime", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git: the
    benchmark may run in an export that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def context(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": git_sha(),
        "seed": seed,
        "reference_seed": REFERENCE_SEED,
        "uncontrolled": list(UNCONTROLLED),
    }


def _median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------


def set_up(workload, workdir: Path, seed: int) -> None:
    """Fixed inputs for the reference seed and ``seed``, then one pass of the
    same code path at toy size, so lazy imports and first calls are paid
    before timing."""
    import spans

    workload.setup(workdir / "inputs", sorted({REFERENCE_SEED, seed}))
    warm = workdir / "warmup"
    tiny = workload.tiny()
    tiny.setup(warm / "inputs", [REFERENCE_SEED])
    with spans.installed(spans.Tracer(), spans.fit_targets()) as tracer:
        tiny.run_pass(REFERENCE_SEED, warm / "inputs", warm, tracer)
    shutil.rmtree(warm)


def child_setup_s(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that does the same set-up and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.DEVNULL, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return elapsed


class Run:
    """The set-ups and passes of one run and what they measured.

    A yardstick chunk (calibration.py) is timed before and after each
    child set-up and each pass.  Each set-up and each pass is scaled by the
    speed in the chunks on either side of it, this process's own set-up by
    the chunk after it: the machine's speed drifts in phases of seconds to
    minutes.
    """

    def __init__(self, workload, seed: int, trace: bool):
        import calibration

        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.seeds = []
        self.setups = []
        self.walls = []  # (traced?, wall time) of each pass
        self.fit_s = []
        self.layer = []  # per-layer metrics of each traced pass
        self.ops = []  # (pass, operation, ok, detail)
        self.accuracy = {}
        self.signatures = {}
        self.chunks = {"setup": [], "passes": []}  # yardstick seconds
        self._yardstick = calibration.Yardstick()
        self._yardstick.chunk_s(steps=200)  # first-call costs

    def time_setups(self, own_s: float, child_s) -> None:
        """Records this process's set-up time and times ``child_s()`` more."""
        self.setups.append(own_s)
        for _ in range(SETUP_CHILDREN):
            self.chunks["setup"].append(self._yardstick.chunk_s())
            self.setups.append(child_s())
        self.chunks["setup"].append(self._yardstick.chunk_s())

    def measure(self, workdir: Path, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        try:
            while True:
                self.chunks["passes"].append(self._yardstick.chunk_s())
                try:
                    wall = self.one_pass(index, workdir)
                except Exception:  # noqa: BLE001 - a crashing pass is a failed operation
                    traceback.print_exc(file=sys.stderr)
                    self.ops.append((index, "pass", False, traceback.format_exc(limit=-1).strip()))
                    return
                index += 1
                if index >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
                    return
        finally:
            self.chunks["passes"].append(self._yardstick.chunk_s())

    def setup_speeds(self) -> list:
        """How much faster the machine ran than its reference state during
        each set-up; set-up times are multiplied by it.  The first set-up,
        this process's own, has a chunk after it only."""
        import calibration

        c = self.chunks["setup"]
        return [calibration.REFERENCE_S / c[0]] + _speeds(c)

    def pass_speeds(self) -> list:
        """The same factor for each pass, so a phase change within the run
        is followed."""
        return _speeds(self.chunks["passes"])

    def one_pass(self, index: int, workdir: Path) -> float:
        import spans

        seed = REFERENCE_SEED if index == 0 else self.seed
        traced = self.trace and index % 2 == 1
        pass_dir = workdir / f"pass{index}"
        pass_dir.mkdir()
        tracer = spans.Tracer()
        with spans.installed(tracer, spans.layer_targets() if traced else spans.fit_targets()):
            start = time.perf_counter()
            outcome = self.workload.run_pass(seed, workdir / "inputs", pass_dir, tracer)
            wall = time.perf_counter() - start
        shutil.rmtree(pass_dir)

        self.seeds.append(seed)
        for name in FIT_SPANS:
            failures = tracer.errors.get(name, 0)
            for i in range(tracer.calls.get(name, 0)):
                self.ops.append((index, name, i >= failures, "raised" if i < failures else ""))
        self.ops.extend((index, *op) for op in outcome.ops)
        if outcome.signature and seed in self.signatures:
            same = outcome.signature == self.signatures[seed]
            self.ops.append((index, "rerun.identical", same,
                             "" if same else f"seed {seed}: outputs differ from its first pass"))
        elif outcome.signature:
            self.signatures[seed] = outcome.signature
        if index == 0:
            self.accuracy = outcome.accuracy
            self.ops.extend((index, *op) for op in self.workload.acceptance(outcome.accuracy))
        self.walls.append((traced, wall))
        if traced:
            self.layer.append(spans.pass_metrics(tracer, wall))
        else:
            self.fit_s.append(sum(tracer.total_s.get(name, 0.0) for name in FIT_SPANS))
        return wall

    def scaled_walls(self, traced: bool) -> list:
        """Wall times of the traced or untraced passes, each times its speed."""
        return [w * k for (t, w), k in zip(self.walls, self.pass_speeds()) if t == traced]

    def metrics(self) -> dict:
        """name -> (value, unit); a value is None when no pass produced it."""
        if self.trace:
            import spans

            out = {}
            for name, unit in spans.PER_LAYER:
                values = [m[name] for m in self.layer if name in m]
                out[name] = (statistics.fmean(values) if values else None, unit)
            traced, plain = _median(self.scaled_walls(True)), _median(self.scaled_walls(False))
            out["trace.overhead_frac"] = (traced / plain - 1.0 if traced and plain else None,
                                          "ratio")
            return out
        values = {
            "wall_s": _median(self.scaled_walls(False)),
            "fit_s": _median([f * k for f, k in zip(self.fit_s, self.pass_speeds())]),
            "setup_s": _median([s * k for s, k in zip(self.setups, self.setup_speeds())]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tau_abs_err": self.accuracy.get("tau_abs_err"),
            "survival_l1_event": self.accuracy.get("survival_l1_event"),
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def report(self, name: str, metrics: dict) -> None:
        """Human-readable lines; the result line follows them."""
        failed = [op for op in self.ops if not op[2]]
        print(f"workload {name}  seed {self.seed}  trace {int(self.trace)}  "
              f"passes {len(self.seeds)} on seeds {self.seeds}")
        notes = {}
        if not self.trace:
            speed = _median(self.pass_speeds())
            notes = {
                "wall_s": _spread([w for _, w in self.walls], speed),
                "fit_s": _spread(self.fit_s, speed),
                "setup_s": _spread(self.setups, _median(self.setup_speeds())),
                "tau_abs_err": f"reference seed {REFERENCE_SEED}",
                "survival_l1_event": f"reference seed {REFERENCE_SEED}",
            }
        rows = [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
        if not self.trace:
            rows.append(("error_rate", len(failed) / max(len(self.ops), 1), "ratio",
                         f"{len(failed)} of {len(self.ops)} checked operations failed"))
            rows.append(("l1_gap", self.accuracy.get("l1_gap"), "abs",
                          "arm workloads only" if "l1_gap" not in self.accuracy
                          else f"reference seed {REFERENCE_SEED}"))
        for key, value, unit, note in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {key:<46} {shown:>12} {unit:<6} {note}")
        for index, op, _, detail in failed:
            print(f"  FAILED pass {index} {op}: {detail}")

    def result(self, metrics: dict) -> dict:
        failed = sum(1 for op in self.ops if not op[2])
        return {
            "correct": failed == 0 and all(v is not None for v, _ in metrics.values()),
            "attempted": max(len(self.ops), 1),
            "failed": failed if self.ops else 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _speeds(chunks) -> list:
    """REFERENCE_S over the mean of each pair of neighbouring chunks."""
    import calibration

    return [2.0 * calibration.REFERENCE_S / (a + b) for a, b in zip(chunks, chunks[1:])]


def _spread(values, speed: float) -> str:
    if not values:
        return ""
    return (f"median of {len(values)}; raw [min {min(values):.4g}, median "
            f"{statistics.median(values):.4g}, max {max(values):.4g}], speed {speed:.4f}")


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    TMP_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT))
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        set_up(workload, workdir, args.seed)
        own_setup_s = seconds_since_process_start()
        if args.setup_only:
            return 0
        run = Run(workload, args.seed, bool(args.trace))
        if not args.trace:
            run.time_setups(own_setup_s, lambda: child_setup_s(args.workload, args.seed))
        run.measure(workdir, args.seconds)
        metrics = run.metrics()
        print("context " + json.dumps(context(args.seed), sort_keys=True))
        run.report(args.workload, metrics)
        print(json.dumps(run.result(metrics)), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still holds a directory there


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("all",) + WORKLOAD_NAMES, default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then exit without measuring (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
