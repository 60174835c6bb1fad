"""stopbp benchmark: closed-loop CLI requests, checked outputs, traced layers.

Run from the root of a stopbp checkout (the package is imported from
``src/``, nothing needs installing):

    python3 stopbench/run.py --workload probe-k1 --seed 1 --seconds 30 --trace 0

One client sends one request after another, each a call to
``stopbp.cli.main(argv)`` in this process, for ``--seconds`` seconds.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the environment.  See stopbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(NPROC, 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
BASELINE_PROBE = ["--r", "[2]", "--n-grid", "100:500:3", "--cap", "3000"]
LAYERS = ("model", "exact_engine", "spectral", "genfun", "montecarlo", "asymptotics", "cli")
SUBPROCESS_TIMEOUT = 120

# per-layer metrics: span self times per request (seconds)
SELF_SPANS = (
    "exact_engine.limiting_absorption", "exact_engine.restricted_kernel",
    "exact_engine.one_step_kernel", "exact_engine.absorption_table",
    "exact_engine.hitting_columns", "exact_engine.stopped_hitting_column",
    "exact_engine.enumerate_states", "asymptotics.periodicity_probe",
    "spectral.perron_triple", "spectral.survival_constants", "spectral.classify",
    "genfun.yaglom", "genfun.yaglom_residual", "genfun.iterate_h",
    "montecarlo.estimate_absorption", "montecarlo.estimate_yaglom",
    "model.load_model", "model.validate_model", "cli.main",
)
PEAK_SPANS = (
    "cli.main", "exact_engine.one_step_kernel", "exact_engine.restricted_kernel",
    "exact_engine.limiting_absorption", "exact_engine.absorption_table",
    "asymptotics.periodicity_probe", "genfun.yaglom",
    "montecarlo.estimate_absorption", "montecarlo.estimate_yaglom",
)
PER_REQUEST_COUNTS = (
    ("exact_engine.series_terms", "count"), ("exact_engine.restricted_steps", "count"),
    ("exact_engine.kernel_bytes", "bytes"), ("exact_engine.states", "count"),
    ("exact_engine.propagation_bytes_computed", "bytes"),
    ("asymptotics.probe_rows", "count"), ("montecarlo.hits", "count"),
)


@dataclass
class Record:
    request: object
    rc: int
    seconds: float
    out: str


def _fail(message: str) -> int:
    print(f"stopbench: {message}", file=sys.stderr)
    return 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# requests


def call(request) -> Record:
    """One CLI request in this process; stdout is captured, not printed."""
    from stopbp import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(request.argv))
    return Record(request, rc, time.perf_counter() - start, buf.getvalue())


def closed_loop(pool, seconds: float) -> list:
    """Send the pool's requests in order, whole passes, until ``seconds`` pass.

    Stopping only at the end of a pass keeps the request mix of every run the
    same, whatever the speed, so medians and rates compare across runs.
    """
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        records += [call(req) for req in pool]
    return records


def warm_up(pool) -> list:
    """One untimed request per command kind, the cheapest of each."""
    seen, records = set(), []
    for req in pool:
        if req.kind not in seen:
            seen.add(req.kind)
            records.append(call(req))
    return records


# ---------------------------------------------------------------------------
# measurements


def tail(times) -> tuple[float, int, int]:
    """(value, percentile, samples) for the highest whole percentile that
    still has at least ten samples above it; below eleven samples, the
    maximum."""
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, n
    pct = 100 * (n - 10) // n
    return xs[max(0, -(-pct * n // 100) - 1)], pct, n


def setup_seconds(model_path: str) -> list:
    """Wall time of fresh processes that import stopbp and classify a model."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from stopbp import cli; "
            "raise SystemExit(cli.main(['classify', '--model', sys.argv[2]]))")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, SRC, model_path],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SUBPROCESS_TIMEOUT, cwd=ROOT)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup classify exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return times


def baseline_probe(model_path: str, blas_threads: int) -> float:
    """In-process time of one fixed probe-k1 request in a fresh process."""
    code = (
        "import contextlib, io, json, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from stopbp import cli\n"
        "argv = ['probe', '--model', sys.argv[2]] + sys.argv[3:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(argv[:3] + ['--r', '[2]', '--n-grid', '20:40:2', '--cap', '200'])\n"
        "    start = time.perf_counter()\n"
        "    rc = cli.main(argv)\n"
        "    took = time.perf_counter() - start\n"
        "print(json.dumps({'rc': rc, 'seconds': took}))\n"
    )
    env = dict(os.environ, **{var: str(blas_threads) for var in BLAS_VARS})
    proc = subprocess.run([sys.executable, "-c", code, SRC, model_path, *BASELINE_PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=SUBPROCESS_TIMEOUT, cwd=ROOT)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or doc["rc"] != 0:
        raise RuntimeError(f"baseline probe failed: {proc.stderr[-500:]!r}")
    return doc["seconds"]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    """BLAS library name/version from numpy's build info, threads from the library."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": name, "blas_threads": threads}


def environment(args) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": NPROC, "python": sys.version.split()[0],
            "numpy": np.__version__, **blas_info()}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def requests_per_s(records, pass_size: int) -> float:
    """Requests per second of request time in the median pass.

    A pass is ``pass_size`` consecutive requests; the median over the run's
    passes leaves out passes that a burst of load from outside slowed down.
    """
    times = [rec.seconds for rec in records]
    passes = [sum(times[i: i + pass_size]) for i in range(0, len(times), pass_size)]
    return pass_size / statistics.median(passes)


def end_to_end(records, pass_size: int, setup_times) -> dict:
    times = [rec.seconds for rec in records]
    value, _, _ = tail(times)
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "request_p50_s": _metric(statistics.median(times), "s"),
        "request_tail_s": _metric(value, "s"),
        "requests_per_s": _metric(requests_per_s(records, pass_size), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def per_layer(tracer, memory, traced, untraced, pass_size, blas, env) -> dict:
    """Per-layer metrics from the traced pass, per request where it says so."""
    n = len(traced)
    wall = sum(rec.seconds for rec in traced)
    spans, counters = tracer.spans, tracer.counters
    out = {}
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = _metric(spans[name].self_s / n, "s")
    out["exact_engine.limiting_absorption.calls"] = _metric(
        spans["exact_engine.limiting_absorption"].calls / n, "count")
    for layer in LAYERS:
        own = sum(s.self_s for name, s in spans.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_s"] = _metric(own / n, "s")
    for name, unit in PER_REQUEST_COUNTS:
        out[name] = _metric(counters[name] / n, unit)
    entries = counters["kernel_entries"] or 1.0
    out["exact_engine.kernel_nonzero_frac"] = _metric(counters["kernel_nonzero"] / entries, "frac")
    out["exact_engine.kernel_significant_frac"] = _metric(
        counters["kernel_significant"] / entries, "frac")
    for name in ("exact_engine.overflow_mass_max", "exact_engine.tail_bound_max"):
        out[name] = _metric(tracer.maxima[name], "prob")
    mc_time = (spans["montecarlo.estimate_absorption"].total_s
               + spans["montecarlo.estimate_yaglom"].total_s)
    trajectories = counters["montecarlo.trajectories"]
    out["montecarlo.trajectories_per_s"] = _metric(
        trajectories / mc_time if mc_time else 0.0, "1/s")
    for name in PEAK_SPANS:
        out[f"{name}.peak_mb"] = _metric(memory.spans[name].peak_bytes / 2**20, "MB")
    rps_traced = requests_per_s(traced, pass_size)
    rps_untraced = requests_per_s(untraced, pass_size)
    out["trace.overhead_frac"] = _metric(1.0 - rps_traced / rps_untraced, "frac")
    attributed = sum(s.self_s for s in spans.values())
    out["trace.attributed_frac"] = _metric(attributed / (wall - tracer.root_excluded), "frac")
    _, pct, samples = tail([rec.seconds for rec in untraced])
    out["requests.tail_percentile"] = _metric(pct, "%")
    out["requests.samples"] = _metric(samples, "count")
    for threads, seconds in blas.items():
        out[f"baseline.probe_blas{threads}_s"] = _metric(seconds, "s")
    out["env.nproc"] = _metric(env["nproc"], "count")
    out["env.blas_threads"] = _metric(env["blas_threads"] or 0, "count")
    return out


# ---------------------------------------------------------------------------


def run(args, workdir: str) -> dict:
    import stopbp
    from stopbp import asymptotics, builtin_models, cli, exact_engine, genfun, model
    from stopbp import montecarlo, spectral

    import checks
    import tracer as tracing
    import workloads

    if not os.path.abspath(stopbp.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"stopbp imported from {stopbp.__file__}, not {SRC}")
    modules = (stopbp, model, exact_engine, spectral, genfun, montecarlo, asymptotics,
               builtin_models, cli)
    work = workloads.WORKLOADS[args.workload](args.seed, workdir)
    env = environment(args)
    print(json.dumps({"env": env}))

    records = []
    if not args.trace:
        setup_times = setup_seconds(work.setup_model.path)
        records += warm_up(work.pool)
        timed = closed_loop(work.pool, args.seconds)
        metrics = end_to_end(timed, len(work.pool), setup_times)
        records += timed
    else:
        records += warm_up(work.pool)
        untraced = closed_loop(work.pool, args.seconds / 2)
        timing = tracing.Tracer(modules).install()
        try:
            traced = closed_loop(work.pool, args.seconds / 2)
        finally:
            timing.uninstall()
        memory = tracing.Tracer(modules, memory=True).install()
        try:
            distinct = {id(req): req for req in work.pool}.values()
            mem_records = [call(req) for req in distinct]
        finally:
            memory.uninstall()
        m1 = workloads.Model("baseline-m1", workloads.M1["laws"], workloads.M1["stopping_set"])
        m1.write(workdir)
        blas = {threads: baseline_probe(m1.path, threads) for threads in (1, 2)}
        records += untraced + traced + mem_records

    verdicts = checks.check_all(records)
    failed = sum(1 for v in verdicts if v)
    for rec, verdict in zip(records, verdicts):
        if verdict:
            print(f"FAILED {' '.join(rec.request.argv)}: {verdict}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(timing, memory, traced, untraced, len(work.pool), blas, env)
        metrics["requests.failed_frac"] = _metric(failed / len(records), "frac")
    else:
        _, pct, samples = tail([rec.seconds for rec in timed])
        print(json.dumps({"request_tail": {"percentile": pct, "samples": samples},
                          "failed_frac": failed / len(records)}))
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stopbp", "cli.py")):
        return _fail(f"no stopbp sources under {SRC}; run from a checkout's root")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["BP_LOG"] = "warning"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    work_root = os.path.join(ROOT, ".stopbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
