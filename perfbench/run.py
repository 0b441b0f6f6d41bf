"""bicopterlab benchmark: CLI-driven workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ellipse_adaptive --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # each workload in its own process

One operation is the user path: write the workload's config (generated from
the seed), then call `bicopterlab.cli.run_cli` for `simulate` and `report`
(and `verify` on ellipse_known_io), then check the outputs. Load is one
process, one client, a closed loop, no threads. With `--trace 0` the run
reports the end-to-end metrics from untraced operations; with `--trace 1`
it alternates untraced and traced operations and reports the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
N_SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def declared_units(kind: str) -> dict:
    """name -> unit of the `end_to_end` or `per_layer` metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# --- provenance -----------------------------------------------------------

def _git(*args) -> str | None:
    # The ceiling keeps git from picking up a repository above this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, samples: dict) -> dict:
    import numpy

    commit = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": commit or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


# --- set-up time ----------------------------------------------------------

def measure_setup(workload: str, seed: int) -> list:
    """Seconds from process start to ready, for N_SETUP_PROBES cold starts."""
    times = []
    cfg_path = OUT / "probe.cfg"
    for _ in range(N_SETUP_PROBES):
        cfg_path.unlink(missing_ok=True)  # a fresh file, as in Operation.run
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
             str(cfg_path)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if done.returncode != 0:
            _fail(f"set-up probe failed:\n{done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


# --- one operation ----------------------------------------------------------

def _scan_csv(path: Path) -> tuple:
    """(sha256 hex, all values finite, size in bytes), reading in chunks.

    Values are written with %.17g, whose output contains no letter n except
    in nan and inf, so after the header line a finite file has no b"n".
    """
    h = hashlib.sha256()
    finite = True
    size = 0
    with open(path, "rb") as f:
        header = f.readline()
        h.update(header)
        size += len(header)
        while chunk := f.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
            finite = finite and b"n" not in chunk
    return h.hexdigest(), finite, size


@contextlib.contextmanager
def _patched(owner, attr: str, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


def _command_problems(outputs) -> list:
    """Nonzero exits, and a verify run that did not pass."""
    problems = [f"{cmd} exited {rc}: {err.strip()}" for cmd, rc, _, err in outputs if rc != 0]
    for cmd, _, out, _ in outputs:
        if cmd == "verify" and out.splitlines()[-1:] != ["all_pass: true"]:
            problems.append("verify did not print all_pass: true")
    return problems


class Operation:
    """Runs and checks one operation of a workload."""

    def __init__(self, workload: str, seed: int, pinned: str | None, out_dir: Path = OUT):
        from perfbench.workloads import commands, config_text

        self.cfg_text = config_text(workload, seed)
        self.cfg_path = out_dir / f"{workload}.cfg"
        self.csv_path = out_dir / f"{workload}.csv"
        self.argv = commands(workload, str(self.cfg_path), str(self.csv_path))
        self.pinned = pinned
        self.first_digest = None
        self.csv_bytes = 0

    def run(self, index: int, tracer=None) -> tuple:
        """(wall s, [(steps, simulate s)], problems) of operation `index`."""
        import bicopterlab.cli as cli

        sims = []
        real_simulate = cli.simulate

        def timed_simulate(cfg):
            t0 = time.perf_counter()
            ts = real_simulate(cfg)
            sims.append((int(round(cfg.t_end / cfg.dt)), time.perf_counter() - t0))
            return ts

        outputs = []
        # Each operation writes fresh files. Truncating and rewriting an
        # existing file makes ext4 start writeback on close, and the next
        # truncation waits for it, so the time would follow the shared
        # disk's load instead of the program.
        self.cfg_path.unlink(missing_ok=True)
        self.csv_path.unlink(missing_ok=True)
        gc.collect()
        patched = tracer.installed() if tracer else _patched(cli, "simulate", timed_simulate)
        with patched:
            t0 = time.perf_counter()
            self.cfg_path.write_text(self.cfg_text)
            for argv in self.argv:
                outputs.append(self._call(cli.run_cli, argv, index, tracer))
            wall = time.perf_counter() - t0
        return wall, sims, self._check(outputs)

    @staticmethod
    def _call(run_cli, argv, index, tracer) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        phase = tracer.operation(index, argv[0]) if tracer else contextlib.nullcontext()
        with phase, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run_cli(argv)
            except Exception as exc:  # an escaped exception is a failed operation
                rc = f"raised {type(exc).__name__}: {exc}"
        return argv[0], rc, out.getvalue(), err.getvalue()

    def run_verify(self, index: int, tracer) -> list:
        """One traced `verify` call outside any operation; problems found."""
        import bicopterlab.cli as cli
        from perfbench.workloads import VERIFY_ARGV

        with tracer.installed():
            output = self._call(cli.run_cli, list(VERIFY_ARGV), index, tracer)
        return _command_problems([output])

    def _check(self, outputs) -> list:
        problems = _command_problems(outputs)
        by_cmd = {cmd: out.splitlines() for cmd, _, out, _ in outputs}
        if len(by_cmd["simulate"]) != 5 or by_cmd["simulate"] != by_cmd["report"]:
            problems.append("report metrics differ from simulate metrics")
        try:
            digest, finite, self.csv_bytes = _scan_csv(self.csv_path)
        except OSError as exc:
            return problems + [f"telemetry unreadable: {exc}"]
        if not finite:
            problems.append("telemetry has non-finite values")
        if self.pinned is not None and digest != self.pinned:
            problems.append(f"CSV sha256 {digest[:16]} != pinned {self.pinned[:16]}")
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"CSV sha256 {digest[:16]} differs from this run's first operation")
        return problems


# --- metrics ----------------------------------------------------------------

def _tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it, if >= 50."""
    p = int(100 * (1 - 10 / n)) if n > 0 else 0
    return p if p >= 50 else None


def end_to_end(walls: list, sims: list, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(walls),
        "sim_steps_per_s": statistics.median(steps / s for steps, s in sims),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced_walls: list, plain_walls: list, csv_bytes: int) -> dict:
    P = "simulate"
    steps = tracer.counted(P, "sim.steps")
    rows = tracer.counted(P, "sim.rows")
    m = {}

    def per_call(name, scale, phases=(P,)):
        calls = incl = 0
        for ph in phases:
            c, i, _ = tracer.totals(ph, name)
            calls, incl = calls + c, incl + i
        return incl / calls * scale if calls else 0.0

    def calls_per_step(name):
        return tracer.totals(P, name)[0] / steps

    for name in ("estimator.filter_deriv", "estimator.filter_outputs",
                 "estimator.data_matrix_deriv", "estimator.params_from_theta",
                 "linearizer.xi_of_chi", "linearizer.iol_w", "tracker.tracking_v",
                 "model.extended_deriv"):
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    for name in ("trajectory.hilbert_ref", "trajectory.ellipse_ref", "estimator.estimate_deriv",
                 "linearizer.xi_of_chi", "linearizer.iol_w", "tracker.tracking_v",
                 "model.extended_deriv"):
        m[f"{name}.calls_per_step"] = calls_per_step(name)
    # Each workload calls one of the two references, so this is never 0.
    refs = [tracer.totals(P, f"trajectory.{f}") for f in ("ellipse_ref", "hilbert_ref")]
    m["trajectory.ref.us_per_call"] = sum(r[1] for r in refs) / sum(r[0] for r in refs) * 1e6
    m["estimator.us_per_step"] = sum(
        tracer.totals(P, f"estimator.{f}")[1]
        for f in ("filter_deriv", "filter_outputs", "data_matrix_deriv", "params_from_theta",
                  "estimate_deriv")) / steps * 1e6
    est_calls = tracer.totals(P, "estimator.estimate_deriv")[0]
    m["estimator.estimate_deriv.deadzone_ratio"] = (
        tracer.counted(P, "estimator.estimate_deriv.deadzone") / est_calls if est_calls else 0.0
    )
    m["linearizer.lie_relative_degree_check.ms_per_call"] = per_call(
        "linearizer.lie_relative_degree_check", 1e3, ("verify",))
    _, rk4_incl, rk4_self = tracer.totals(P, "sim.rk4_step")
    m["sim.rk4_step.us_per_step"] = rk4_incl / steps * 1e6
    m["sim.rk4_step.self_us_per_step"] = rk4_self / steps * 1e6
    m["sim.deriv_calls_per_step"] = tracer.counted(P, "sim.deriv") / steps
    sim_calls, sim_incl, _ = tracer.totals(P, "sim.simulate")
    m["sim.log.us_per_row"] = (sim_incl - rk4_incl) / rows * 1e6
    m["sim.rows_logged"] = rows / sim_calls
    m["sim.to_csv.ms"] = per_call("sim.to_csv", 1e3)
    m["sim.to_csv.bytes"] = csv_bytes
    m["sim.from_csv.ms"] = per_call("sim.from_csv", 1e3, ("report",))
    m["sim.summarize.ms"] = per_call("sim.summarize", 1e3, ("simulate", "report"))
    m["cli.parse_config.us_per_call"] = per_call("cli.parse_config", 1e6,
                                                 ("simulate", "report", "verify"))
    m["verify.run_verification.ms"] = per_call("verify.run_verification", 1e3, ("verify",))
    m["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    return m


# --- running a workload -----------------------------------------------------

def run_workload(args) -> int:
    from perfbench.tracer import Tracer

    pinned = json.loads((BENCH / "digests.json").read_text())
    op = Operation(args.workload, args.seed, pinned[args.workload] if args.seed == 0 else None)
    tracer = Tracer() if args.trace else None
    failures = []
    plain, traced, sims = [], [], []

    def one(index: int, traced_op: bool) -> float:
        wall, op_sims, problems = op.run(index, tracer if traced_op else None)
        if problems:
            failures.append((index, problems))
        sims.extend(op_sims)
        return wall

    one(0, False)  # warm-up: fills caches and lazy imports; checked, not timed
    sims.clear()
    start = time.perf_counter()
    index = 1
    while True:
        traced_op = bool(args.trace) and index % 2 == 0
        (traced if traced_op else plain).append(one(index, traced_op))
        index += 1
        enough = not args.trace or traced
        if enough and time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        # verify ignores the workload's config, so one traced call times its
        # oracles on every workload, not only where operations run verify
        problems = op.run_verify(index, tracer)
        if problems:
            failures.append((index, problems))
        index += 1

    attempted = index
    samples = {"ops_attempted": attempted, "ops_timed_untraced": len(plain),
               "ops_traced": len(traced)}
    if args.trace:
        units = declared_units("per_layer")
        computed = per_layer(tracer, traced, plain, op.csv_bytes)
    else:
        units = declared_units("end_to_end")
        computed = end_to_end(plain, sims, args.setup)
        samples["setup_probes"] = len(args.setup)
    metrics = {name: computed[name] for name in units}
    prov = provenance(args, samples)

    report = {
        "provenance": prov,
        "metrics": metrics,
        "op_walls_s": plain,
        "traced_op_walls_s": traced,
        "setup_s": args.setup,
        "failures": failures,
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        report["trace"] = tracer.dump()
        with open(f"{stem}.rk4_spans.f64", "wb") as f:
            tracer.step_spans.tofile(f)  # (op index, start s, end s) triples
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1))

    for index, problems in failures[:5]:
        for p in problems:
            print(f"op {index}: {p}", file=sys.stderr)
    print(f"provenance: {json.dumps(prov)}")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    if not args.trace:
        tail = _tail_percentile(len(plain))
        note = (f"p{tail} {statistics.quantiles(plain, n=100)[tail - 1]!r} s" if tail
                else "no percentile above p50 has 10 samples beyond it")
        print(f"op_s samples: {len(plain)}; {note}")
    print(f"op_fail_ratio: {len(failures) / attempted!r} ({len(failures)} of {attempted} attempted)")
    print(f"output_check: {'pass' if not failures else 'FAIL'}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bicopterlab" / "__init__.py").is_file():
        _fail(f"no bicopterlab sources under {SRC}; run from a repository checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           cwd=ROOT).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all")
    if args.seed < 0 or args.seconds < 1:
        _fail("--seed must be >= 0 and --seconds >= 1")
    OUT.mkdir(exist_ok=True)
    args.setup = [] if args.trace else measure_setup(args.workload, args.seed)

    import bicopterlab

    if Path(bicopterlab.__file__).resolve().parent != (SRC / "bicopterlab").resolve():
        _fail(f"imported bicopterlab from {bicopterlab.__file__}, not from {SRC}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
