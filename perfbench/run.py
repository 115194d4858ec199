"""quantproc benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload mc-pricing --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload's job list is built from the seed, every expected value is
computed by ``reference``, and one untimed pass fills lazy imports.  Timed
passes follow until their wall time adds up to ``--seconds``; only complete
passes are kept.  Every job's output is checked after every execution,
outside the timed span.  Set-up time comes from fresh interpreters (see
``probe.py``), run one at a time between passes and spread evenly over the
run, so that they sample the machine's speed across the whole run.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` job executions, and the metrics (end-to-end
with ``--trace 0``, per-layer with ``--trace 1``).
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the VG mixture's matrix
# product is the only BLAS call, and a second thread competes with the
# benchmark itself on a two-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
# About the median time of calibrate() on the 2-core reference machine.  The
# CPU speed of that (shared) machine drifts by about +-20% over phases of
# 5-30 s, which spread unscaled run medians by 23-45%.  Every job latency is therefore scaled by
# CAL_REF_S / (calibration time measured just before and after it on the same
# core): seconds at the reference speed.  The calibration never calls quantproc.
CAL_REF_S = 6.0e-3
_CAL_X = np.random.default_rng(0).standard_normal(200_000)


def calibrate() -> float:
    """Time a fixed mix of numpy work (ndtr and exp over 200k points) and
    interpreter work (8k scalar steps), the two kinds the jobs do."""
    t0 = time.perf_counter()
    special.ndtr(_CAL_X)
    np.exp(_CAL_X)
    acc = 0.0
    for i in range(8_000):
        acc += math.sin(i)
    return time.perf_counter() - t0


def speed_factor(cal: list[float]) -> float:
    return CAL_REF_S / statistics.fmean(cal)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    pkg = SRC / "quantproc"
    if not (pkg / "__init__.py").is_file():
        fail(f"no quantproc sources under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import quantproc
    if Path(quantproc.__file__).resolve().parent != pkg.resolve():
        fail(f"quantproc was imported from {quantproc.__file__}, not from {pkg}")


def probe_cmd(workload: str, *flags: str) -> list[str]:
    return [sys.executable, *flags, str(HERE / "probe.py"), workload]


def probe_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def setup_seconds(workload: str) -> float:
    """Spawn-to-first-result time of one fresh interpreter.

    Scaled like a job latency, by calibrations just before and after it: the
    probe is CPU-bound, and unscaled run medians spread by 17-19%.
    """
    before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(probe_cmd(workload), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=probe_env(), cwd=ROOT)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        fail("set-up probe failed")
    return took * speed_factor([before, calibrate()])


def import_profile(workload: str) -> tuple[float, list]:
    """``-X importtime`` of one probe: ms from the package's first import on, top modules."""
    proc = subprocess.run(probe_cmd(workload, "-X", "importtime"), capture_output=True,
                          env=probe_env(), cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        fail("import-time probe failed")
    total_us, seen, rows = 0, False, []
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[0].split()[-1].isdigit():
            continue
        self_us, cum_us, name = int(parts[0].split()[-1]), int(parts[1]), parts[2]
        top = len(name) - len(name.lstrip()) == 1
        seen = seen or name.strip().startswith("quantproc")
        if seen:
            rows.append((name.strip(), self_us / 1e3))
            if top:
                total_us += cum_us
    rows.sort(key=lambda r: -r[1])
    return total_us / 1e3, rows[:15]


def run_pass(jobs, judge: bool):
    """Execute every job once: latencies (s), failure messages, calibration times (s).

    A calibration runs before every job and once after the last, so job j
    lies between calibrations j and j + 1.
    """
    lat, errs, cal = [], [], []
    for job in jobs:
        cal.append(calibrate())
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a job that raises counts as failed, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - t0)
        if err is None and judge:
            err = job.check(out)
        del out
        errs.append(err)
    cal.append(calibrate())
    return lat, errs, cal


def artifact_bytes(jobs) -> int:
    return sum(f.stat().st_size for j in jobs if j.out_dir for f in j.out_dir.iterdir())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_program()
    # one core for the benchmark, its probes and its calibration, so that the
    # calibration measures the core the jobs run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import reference
    import tracer as tracing
    import workloads
    if args.workload not in workloads.JOB_LISTS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.JOB_LISTS)}")

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"cli-{args.workload}-", dir=OUT))
    try:
        ref_bad = reference.self_test()
        for what in ref_bad:
            print(f"reference self-test failed: {what}; outputs are not judged", file=sys.stderr)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        counter = (lambda f: tracer.count_calls("drivers.intensity_evals", f)) if tracer else None
        jobs = workloads.JOB_LISTS[args.workload](args.seed, tmp, counter)

        judge = not ref_bad
        attempted = failed = 0
        unexpected: dict[str, str] = {}

        def tally(errs):
            nonlocal attempted, failed
            for job, err in zip(jobs, errs):
                attempted += 1
                if err is not None:
                    failed += 1
                    if not job.known_fault:
                        unexpected.setdefault(job.name, err)

        rss_before_jobs = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally(run_pass(jobs, judge)[1])  # untimed: lazy imports, first artifacts
        passes, raw, layers, setup = [], [], [], []
        while not passes or sum(raw) < args.seconds:
            if len(setup) < SETUP_PROBES and sum(raw) >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(setup_seconds(args.workload))
            if tracer:
                tracer.reset()
                tracer.recording = not passes
            lat, errs, cal = run_pass(jobs, judge)
            tally(errs)
            passes.append([x * speed_factor(cal[j:j + 2]) for j, x in enumerate(lat)])
            raw.append(sum(lat))
            if tracer:
                f = speed_factor(cal)
                tracer.recording = False
                snap = {**tracer.snapshot(), "cli.bytes_written": float(artifact_bytes(jobs)),
                        "trace.pass_s": sum(lat)}
                layers.append({k: v * f if tracing.unit(k) in ("ms", "s") else v
                               for k, v in snap.items()})
        while len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(args.workload))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    med = statistics.median
    job_ms = [1e3 * med(p[j] for p in passes) for j in range(len(jobs))]
    for job, ms in zip(jobs, job_ms):
        note = f"  [known fault: {job.known_fault}]" if job.known_fault else ""
        print(f"job {job.name:40s} {ms:10.2f} ms{note}")
    for name, err in unexpected.items():
        print(f"FAILED {name}: {err}", file=sys.stderr)
    print(f"{len(passes)} complete passes of {len(jobs)} jobs; "
          f"median pass {med(raw):.4f} s wall, {med(sum(p) for p in passes):.4f} s scaled")
    print(f"peak RSS {rss_before_jobs:.1f} MB before the first job, "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB at the end")

    if tracer:
        import_ms, top = import_profile(args.workload)
        metrics = {k: med(p[k] for p in layers) for k in layers[0]}
        metrics["setup.import_ms"] = import_ms
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(dump, {"workload": args.workload, "seed": args.seed, "pass": 1,
                           "import_ms_top_self": top})
        print(f"spans: {dump.relative_to(ROOT)}")
        result_metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
    else:
        result_metrics = {
            "setup_s": {"value": med(setup), "unit": "s"},
            "pass_s": {"value": med(sum(p) for p in passes), "unit": "s"},
            "job_p50_ms": {"value": med(job_ms), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": judge and not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
