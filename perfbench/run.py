"""Closed-loop benchmark of the condorcet command line.

    python3 perfbench/run.py --workload {exact,mc-deep,mc-wide,limit} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. One client in one thread sends each request of the workload's
cycle (``workloads.py``) as an in-process call to
``condorcet.cli.main(argv + ["--format", "json"])`` and captures the output,
repeating whole cycles until S seconds have passed and at least
MIN_REQUESTS requests are done. Every answer is then checked against the
independent references of ``oracle.py``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` the workload runs once untraced and
once with spans around the calls between the package's modules
(``tracing.py``), and the object carries the per-layer metrics instead. A full
record, with the environment, the input census and any failures, is written
under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
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

# One thread, as the closed loop has: a BLAS thread pool on a shared host of
# few cores measures the scheduler rather than the program. Set before numpy
# is first imported; the set-up probes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_REQUESTS = 110  # leaves at least 10 samples above p90
MIN_CYCLES = 4  # repeats of each request, whose median is kept
REF_LOOPS = 20_000  # the reference loop: this many pure-Python multiply-adds
NOMINAL_REF_S = 1e-3  # the reference loop's time at the nominal host speed
METHODS = ("exact", "closed-form", "equicorrelated-integral", "monte-carlo")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def reference_loop() -> float:
    """Wall time of the reference loop, a fixed piece of pure-Python work.

    It touches none of the program's state, so its time tracks the host's
    speed alone: on a shared host that speed drifts by tens of percent over
    seconds and over minutes, and the program's latencies drift with it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def normalise(seconds: float, ref_before: float, ref_after: float) -> float:
    """A wall time in seconds at the nominal host speed.

    ``ref_before`` and ``ref_after`` are the reference loop's times right
    before and right after it; the time is scaled by the nominal reference
    time over their mean.
    """
    return seconds * 2 * NOMINAL_REF_S / (ref_before + ref_after)


def normalise_latencies(done, ref_times) -> list[float]:
    """Each latency of ``done`` normalised; ``ref_times`` brackets every request."""
    if len(ref_times) != len(done) + 1:
        raise ValueError(f"{len(ref_times)} reference times for {len(done)} requests")
    return [normalise(d[4], ref_times[k], ref_times[k + 1]) for k, d in enumerate(done)]


def median_per_request(done, latencies, cycle_len: int) -> list[float]:
    """Each request of the cycle: the median of its latencies over the run's cycles.

    ``latencies`` lines up with ``done``. p50 and p90 are taken over these
    medians, one value per request. A percentile of
    all of a run's latencies pooled jumps from one request's latency to its
    neighbour's whenever the host's drifting speed reorders them; a
    percentile over per-request medians moves only as fast as the medians.
    """
    if not done or len(done) % cycle_len or len(latencies) != len(done):
        raise ValueError(f"{len(done)} requests do not make whole cycles of {cycle_len}")
    by_request: list[list[float]] = [[] for _ in range(cycle_len)]
    for d, latency in zip(done, latencies):
        by_request[d[0]].append(latency)
    return [statistics.median(v) for v in by_request]


def import_cli():
    """Import ``condorcet.cli`` from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    if not (src / "condorcet" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {src / 'condorcet'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import condorcet.cli

    if Path(condorcet.cli.__file__).resolve().parent != (src / "condorcet").resolve():
        raise BenchmarkError(f"condorcet was imported from {condorcet.cli.__file__}, not {src}")
    return condorcet.cli


def call(main, argv) -> tuple[int, str, str]:
    """One CLI request: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv) + ["--format", "json"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a failed request is counted, the loop goes on
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_loop(requests, seconds: float, main, tracer=None, min_requests: int = MIN_REQUESTS,
             min_cycles: int = MIN_CYCLES, reference: bool = False):
    """Send whole cycles of requests until all three limits are met.

    Returns ([(cycle index, exit code, stdout, stderr, latency)], elapsed,
    reference times). With ``reference`` the reference loop runs before the
    first request and after each one, outside the latencies; else there are
    no reference times.
    """
    done = []
    ref_times = [reference_loop()] if reference else []
    start = time.perf_counter()
    while True:
        for index, req in enumerate(requests):
            t0 = time.perf_counter()
            if tracer is None:
                rc, out, err = call(main, req.argv)
            else:
                rc, out, err = tracer.request(len(done), call, main, req.argv)
            done.append((index, rc, out, err, time.perf_counter() - t0))
            if reference:
                ref_times.append(reference_loop())
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(done) >= max(min_requests, min_cycles * len(requests)):
            return done, elapsed, ref_times


def write_inputs(w) -> Path:
    """A fresh directory under .perfbench/work holding the workload's input files."""
    (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_DIR / "work"))
    for rel, text in w.files.items():
        (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
        (workdir / rel).write_text(text)
    return workdir


def prepare(name: str, seed: int):
    """Import the package, write the inputs and warm up: the timed set-up."""
    cli = import_cli()
    w = workloads.build(name, seed)
    workdir = write_inputs(w)
    with contextlib.chdir(workdir):
        for argv in w.warmup:
            rc, _, err = call(cli.main, argv)
            if rc != 0:
                raise BenchmarkError(f"warm-up request {' '.join(argv)} failed ({rc}): {err.strip()}")
    return cli, w, workdir


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh processes that start Python, import, write inputs and warm up.

    Returns their wall times, and the same normalised by the median of five
    reference loops before and after each.
    """
    def ref() -> float:
        return statistics.median(reference_loop() for _ in range(5))

    times, normalised = [], []
    before = ref()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        after = ref()
        normalised.append(normalise(times[-1], before, after))
        before = after
    return times, normalised


def check_all(w, done) -> tuple[int, list[str], dict[int, dict]]:
    """Check every response; returns (failed count, messages, references by cycle index)."""
    refs: dict[int, dict] = {}
    failed, messages = 0, []
    first: dict[int, dict] = {}
    for index, rc, out, err, _ in done:
        req = w.requests[index]
        if index not in refs:
            refs[index] = oracle.reference(req, w)
        problems = oracle.check(req, refs[index], rc, out)
        if not problems and req.pattern is not None:
            first.setdefault(req.pattern, {}).setdefault(req.command, json.loads(out))
        if problems:
            failed += 1
            messages.append(f"{' '.join(req.argv)}: {'; '.join(problems)}" + (f" [{err.strip()[-300:]}]" if err else ""))
    # limit and classify must agree on every sign pattern they both answered
    for number, answers in sorted(first.items()):
        if {"limit", "classify"} <= answers.keys():
            lim, cls = answers["limit"], answers["classify"]
            if lim["case"] != cls["case"] or abs(lim["value"] - cls["value"]) > 4 * oracle.FORMULA_TOL:
                failed += 1
                messages.append(f"pattern {number}: limit {lim['case']}/{lim['value']!r} "
                                f"disagrees with classify {cls['case']}/{cls['value']!r}")
    return failed, messages, refs


def terms_by_method(w, done) -> dict[str, float]:
    counts = dict.fromkeys(METHODS, 0)
    for index, rc, out, _, _ in done:
        if rc == 0 and w.requests[index].command == "limit":
            for term in json.loads(out)["terms"]:
                if term["method"] in counts:
                    counts[term["method"]] += 1
    return {f"orthant.terms_by_method.{k}": v / len(done) for k, v in counts.items()}


def limit_term_census(w, refs) -> dict[str, float]:
    """Share of limit terms by the orthant method their inputs call for."""
    counts = dict.fromkeys(METHODS, 0)
    for index, ref in refs.items():
        if w.requests[index].command == "limit":
            for term in ref["terms"]:
                counts[term["method"]] += 1
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()} if total else {}


def environment(args) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def end_to_end(done, ref_times, failed, setup_norm, rss_mb, cycle_len: int) -> dict[str, float]:
    normalised = normalise_latencies(done, ref_times)
    medians = median_per_request(done, normalised, cycle_len)
    return {
        "setup_s": statistics.median(setup_norm),
        "req_per_norm_s": len(done) / math.fsum(normalised),
        "p50_norm_s": percentile(medians, 50),
        "p90_norm_s": percentile(medians, 90),
        "success_rate": 1.0 - failed / len(done),
        "peak_rss_mb": rss_mb,
    }


def busy_rate(done) -> float:
    """Requests per second of time spent inside requests, reference loops left out."""
    return len(done) / math.fsum(d[4] for d in done)


def raw_figures(done, ref_times, setup_times, cycle_len: int) -> dict:
    """The same figures in plain wall seconds, and every latency; kept in the record only."""
    latencies = [d[4] for d in done]
    medians = median_per_request(done, latencies, cycle_len)
    return {"req_per_s": busy_rate(done), "p50_s": percentile(medians, 50), "p90_s": percentile(medians, 90),
            "setup_s": statistics.median(setup_times), "reference_loop_s_median": statistics.median(ref_times),
            "latencies_by_request": [[l for d, l in zip(done, latencies) if d[0] == i] for i in range(cycle_len)]}


def with_units(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def run(args) -> int:
    if "CONDORCET_THREADS" in os.environ:
        raise BenchmarkError("CONDORCET_THREADS is set; it changes Monte Carlo results and the work split. Unset it.")
    setup_times, setup_norm = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    cli, w, workdir = prepare(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    traced = []
    try:
        with contextlib.chdir(workdir):
            done, _, ref_times = run_loop(w.requests, args.seconds, cli.main, reference=not args.trace)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.install()
                try:
                    cpu0 = time.process_time()
                    traced, _, _ = run_loop(w.requests, args.seconds, cli.main, tracer)
                    cpu = time.process_time() - cpu0
                finally:
                    tracer.uninstall()
            failed, messages, refs = check_all(w, done + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is None:
        metrics = with_units(end_to_end(done, ref_times, failed, setup_norm, rss_mb, len(w.requests)), spec["end_to_end"])
    else:
        roots = [s[2] - s[1] for s in tracer.spans if s[0] == tracing.ROOT_SPAN]
        values = tracing.layer_metrics(tracer.spans, percentile(roots, 90))
        values.update(terms_by_method(w, traced))
        values["process.cpu_s"] = cpu / len(traced)
        values["trace.overhead_ratio"] = busy_rate(traced) / busy_rate(done)
        metrics = with_units(values, spec["per_layer"])

    attempted = len(done) + len(traced)
    census = workloads.census(w)
    census["limit_terms_by_method"] = limit_term_census(w, refs)
    env = environment(args)
    record = {"environment": env, "census": census, "metrics": metrics, "wall": raw_figures(done, ref_times, setup_times, len(w.requests)) if tracer is None else None,
              "attempted": attempted, "failed": failed, "failures": messages[:50]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        record["absent_boundaries"] = tracer.absent
        record["unobserved_boundaries"] = sorted(tracer.unobserved)
        fields = ("name", "start", "end", "parent", "request", "info")
        with open(OUT_DIR / "results" / f"{stem}-spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")
    (OUT_DIR / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for line in messages[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print("census: " + json.dumps(census))
    if tracer is not None and (tracer.absent or tracer.unobserved):
        print("absent boundaries: " + json.dumps(tracer.absent))
        print("boundaries whose counts could not be read: " + json.dumps(sorted(tracer.unobserved)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            _, _, workdir = prepare(args.workload, args.seed)
            shutil.rmtree(workdir, ignore_errors=True)
            return 0
        return run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
