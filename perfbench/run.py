"""qspan benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload quench-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30      # every workload
    python3 perfbench/run.py --smoke                          # one small request each

One client sends the next request only after the previous one completed,
for `--seconds` seconds. Outputs are checked after the loop, outside the
timed intervals. With `--trace 0` the last stdout line is a JSON object with
every end-to-end metric; with `--trace 1` the run serves a fixed set of
whole request periods (about `--seconds / 2`) untraced, then as many traced,
and the line carries the per-layer metrics instead.
`--record FILE` appends the full record (environment stamp, mix, details) as
one JSON line, the input of `perfbench/compare.py`.

The program is imported from `src/` of the checkout this file sits in; the
run exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def _import_program() -> float:
    """Import numpy, scipy and qspan from ROOT/src; return the wall time."""
    src = ROOT / "src"
    if not (src / "qspan" / "__init__.py").is_file():
        print(f"perfbench: no qspan source tree at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import qspan
    import qspan.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(qspan.__file__).resolve().parent != (src / "qspan").resolve():
        print(f"perfbench: qspan imported from {qspan.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return elapsed


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def env_stamp() -> dict:
    """Settings that decide whether two results may be compared."""
    import numpy
    import scipy
    from workloads import NPROC
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l3_cache": _read(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; pct = 100 is the maximum."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def closed_loop(wl, seconds: float | None, tracer=None, first: int = 0,
                count: int | None = None):
    """Requests k = first, first + 1, ... until one completes after
    `seconds` once a whole cycle has been served, or exactly `count` of them
    when `count` is given.

    Returns the (request, output, error, start, latency) records, start
    relative to the loop's start."""
    done = []
    origin = time.perf_counter()
    k = first
    while True:
        req = wl.request(k)
        if tracer is not None:
            tracer.begin_request(k)
        t0 = time.perf_counter()
        try:
            out, err = wl.execute(req), None
        except Exception as exc:  # a failed request, counted below
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        done.append((req, out, err, t0 - origin, t1 - t0))
        k += 1
        if count is not None:
            if len(done) == count:
                return done
        elif t1 - origin >= seconds and len(done) >= wl.cycle:
            return done


def rate(done, reasons, cycle: int) -> float:
    """Correct requests per second of the workload's mix: the requests are
    grouped by their position k % cycle in the cycle, and each position adds
    its share of correct requests over the mean latency of its requests.

    Over whole cycles this is correct requests over the loop's wall time.
    Unlike that ratio it does not jump with the position at which the loop
    stops, where one request can take a third of the run (ed-collapse,
    quench-fresh). Every position must have been served."""
    lats, ok = {}, {}
    for r, why in zip(done, reasons):
        pos = r[0]["k"] % cycle
        lats.setdefault(pos, []).append(r[4])
        ok[pos] = ok.get(pos, 0) + (why is None)
    return (sum(ok[p] / len(v) for p, v in lats.items())
            / sum(statistics.fmean(v) for v in lats.values()))


def correct_latencies(done, reasons) -> list[float]:
    """Latencies of the correct requests; a failed request is reported as a
    failure, not as a fast (or slow) sample. All latencies when none is
    correct, so that a run whose every request failed still prints numbers
    (with `correct` false)."""
    lat = [r[4] for r, why in zip(done, reasons) if why is None]
    return lat or [r[4] for r in done]


def trace_periods(wl, seconds: float) -> int:
    """Whole request periods in each half of a traced run: about
    `seconds / 2` at the workload's nominal period time."""
    return max(1, round(seconds / 2 / wl.period_s))


def check_all(wl, done) -> list[str | None]:
    """Reason per request (None when correct)."""
    group = wl.check_group([(r[0], r[1]) for r in done if r[2] is None])
    reasons = []
    for req, out, err, _, _ in done:
        if err is None:
            try:
                err = wl.check(req, out) or group.get(req["k"])
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        reasons.append(err)
    return reasons


def kind_shares(done, wall: float) -> dict:
    """Count share, time share and median latency of each request kind."""
    lats = {}
    for req, _, _, _, lat in done:
        lats.setdefault(req["kind"], []).append(lat)
    return {k: {"count_share": len(v) / len(done), "time_share": sum(v) / wall,
                "median_s": statistics.median(v)}
            for k, v in sorted(lats.items())}


@contextlib.contextmanager
def _workdir():
    """Scratch directory for generated configs and outputs, inside the
    checkout; removed afterwards."""
    path = ROOT / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            path.parent.rmdir()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float) -> tuple[dict, dict]:
    from tracing import LAYERS, Tracer
    from workloads import WORKLOADS

    with _workdir() as workdir:
        wl = WORKLOADS[name](seed, workdir)
        details = {"workload": name, "seed": seed, "seconds": seconds,
                   "trace": int(trace)}
        if not trace:
            setup_times = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            done = closed_loop(wl, seconds)
            reasons = check_all(wl, done)
            all_reasons = reasons
            details["setup_reps_s"] = setup_times
            details["import_s"] = import_s
        else:
            # A fixed request set of whole periods, the same for parent and
            # change, so counts repeat and self times compare directly.
            n = trace_periods(wl, seconds) * wl.period
            tracer = Tracer()
            tracer.install()
            try:
                wl.setup()
            finally:
                tracer.uninstall()
            plain = closed_loop(wl, None, count=n)
            tracer.install()
            try:
                done = closed_loop(wl, None, tracer, first=n, count=n)
            finally:
                tracer.uninstall()
            plain_reasons = check_all(wl, plain)
            reasons = check_all(wl, done)
            all_reasons = plain_reasons + reasons
            details["traced_requests"] = n
        throughput = rate(done, reasons, wl.cycle)
        failed = sum(r is not None for r in all_reasons)
        attempted = len(all_reasons)
        lat = correct_latencies(done, reasons)
        wall = done[-1][3] + done[-1][4]
        tail = percentile(lat, wl.tail_pct)
        details.update({
            "requests": len(done), "wall_s": wall,
            "fail_ratio": failed / attempted,
            "failures": sorted({r for r in all_reasons if r})[:10],
            "tail_pct": wl.tail_pct, "latency_samples": len(lat),
            "tail_samples_beyond": sum(x > tail for x in lat),
            "kinds": kind_shares(done, wall),
            "mix": wl.mix([r[0] for r in done]),
        })
        if not trace:
            metrics = {
                "setup_s": (import_s + statistics.median(setup_times), "s"),
                "throughput_rps": (throughput, "1/s"),
                "latency_p50_s": (statistics.median(lat), "s"),
                "latency_tail_s": (tail, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            plain_rate = rate(plain, plain_reasons, wl.cycle)
            overhead = throughput / plain_rate if plain_rate else 0.0
            out_bytes = sum(wl.output_bytes(r[1]) for r in done if r[1] is not None)
            metrics = tracer.metrics(overhead, out_bytes)
            selfs, _ = tracer.self_times()
            layers = tracer.layer_totals(selfs)
            details["layer_self_s"] = layers
            details["dominant_layer"] = max(LAYERS, key=layers.get)
            details["predicted_layer"] = wl.predicted
            details["top_spans_self_s"] = dict(sorted(
                selfs.items(), key=lambda kv: -kv[1])[:8])
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return result, details


def _print_human(result: dict, details: dict, env: dict) -> None:
    d = details
    print(f"workload {d['workload']}  seed {d['seed']}  seconds {d['seconds']}"
          f"  trace {d['trace']}")
    from tracing import COMPUTED
    for name, m in result["metrics"].items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{label}")
    print(f"  {'fail_ratio':44s} {d['fail_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"  latency_tail_s is p{d['tail_pct']:g} over "
          f"{d['latency_samples']} correct requests, "
          f"{d['tail_samples_beyond']} beyond it")
    if d["trace"]:
        holds = d["dominant_layer"] in d["predicted_layer"].split("+")
        print(f"  dominant layer {d['dominant_layer']} (predicted "
              f"{d['predicted_layer']}: {'holds' if holds else 'does not hold'})")
    for reason in d["failures"]:
        print(f"  failure: {reason}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# details " + json.dumps(details, sort_keys=True, default=str))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def main_single(args, import_s: float) -> int:
    env = env_stamp()
    result, details = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), import_s)
    _print_human(result, details, env)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "details": details,
                                 "result": result}, default=str) + "\n")
    print(json.dumps(result))
    return 0


def main_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    from workloads import WORKLOADS
    status = 0
    summary = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        summary.append((name, result))
    print("summary")
    for name, result in summary:
        cells = "  ".join(f"{k}={m['value']:.4g}{m['unit']}"
                          for k, m in result["metrics"].items())
        print(f"  {name:13s} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}  {cells}")
    return status


def main_smoke() -> int:
    """One small request per workload, checked; plus the known-failure
    probes (README "Known failures"), which do not set the exit code."""
    import workloads as W
    status = 0
    with _workdir() as workdir:
        for name, cls in W.WORKLOADS.items():
            wl = cls(1, workdir)
            t0 = time.perf_counter()
            wl.setup()
            reqs = wl.smoke_requests()
            done = [(r, wl.execute(r), None, 0.0, 0.0) for r in reqs]
            reasons = check_all(wl, done)
            bad = [r for r in reasons if r]
            status |= 1 if bad else 0
            print(f"smoke {name}: {len(reqs)} requests, "
                  f"{'ok' if not bad else 'FAILED ' + '; '.join(bad)} "
                  f"({time.perf_counter() - t0:.1f} s)")
        for probe in W.KNOWN_FAILURE_PROBES:
            print("known failure, not gating: " + probe(workdir))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record to FILE")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (args.smoke or args.all or args.workload):
        parser.error("--workload, --all or --smoke is required")
    import_s = _import_program()  # before anything else imports numpy
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return main_smoke()
    if args.all:
        return main_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    return main_single(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
