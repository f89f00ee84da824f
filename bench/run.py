"""cpk benchmark: seeded CLI workloads checked against closed-form oracles.

Run from the repository root:

    python3 bench/run.py --workload ktheory-graph --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run imports cpk from ./src, runs one warm-up document, then calls
cpk.cli.main(argv) in-process once per seeded document, back to back (a
closed loop with one client), until --seconds have passed. Documents are
written under ./.bench_work one round ahead of the loop. Every report is
checked against the oracle in workloads.py. Timings, set-up included, are
scaled to a reference interpreter speed measured next to each document.
--trace 0 prints the end-to-end metrics; --trace 1 runs the same documents
with timing wrappers installed (tracer.py), then again without, and prints
the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object; see NOTES.md.
"""

import time


def calibrate():
    """Seconds a fixed pure-Python loop takes: the interpreter's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


_CAL_START = min(calibrate() for _ in range(5))  # speed at the start of set-up
_T0 = time.perf_counter()

from dataclasses import dataclass, field  # noqa: E402

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One process, one thread: BLAS must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CPK_EXT_BOUND", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

END_TO_END = {
    "docs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TAIL_LADDER = (50, 90, 99, 99.9)  # highest one with ten samples beyond it
SETUP_SAMPLES = 9  # this process plus eight fresh interpreters
# The machine this runs on may be shared: its speed drifts by tens of
# percent over seconds. Timings are scaled to the speed at which the
# calibration loop takes CAL_REF_S, measured next to each document.
CAL_REF_S = 0.0015
CAL_WINDOW = 2  # documents on each side whose calibrations set the speed
CHECK_CYCLE = (16, 2)  # the cyclic pair (n, step) for the SNF-caller profile


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_cpk():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cpk", "cli.py")):
        raise BenchError(f"no cpk sources under {src}")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401

    import cpk.cli

    if not os.path.abspath(cpk.cli.__file__).startswith(src + os.sep):
        raise BenchError(f"cpk imported from {cpk.cli.__file__}, not from {src}")
    return cpk.cli


# ---------------------------------------------------------------------------
# running documents


def write_docs(docs, directory):
    paths = []
    for doc in docs:
        path = os.path.join(directory, doc.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc.body, fh)
        paths.append(path)
    return paths


def run_doc(cli, doc, path, tracer=None):
    """One cpk invocation: (seconds, problems). Never raises."""
    argv = doc.argv(path)
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.document(doc.name, cli.main, argv)
        report = json.loads(out.getvalue())
    except (Exception, SystemExit) as exc:  # a crash is a failed document
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    return elapsed, workloads.check(doc, code, report)


@dataclass
class Loop:
    """What one closed loop ran and measured, in run order."""

    items: list = field(default_factory=list)  # (doc, path) pairs
    latencies: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (doc name, problems)
    wall: float = 0.0


def closed_loop(cli, items, seconds=None, tracer=None):
    """Run (doc, path) items back to back until `seconds` have passed or the
    items run out, timing the calibration loop (best of two) just before and
    just after each document."""
    loop = Loop()
    start = time.perf_counter()
    for doc, path in items:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        before = min(calibrate(), calibrate())
        elapsed, problems = run_doc(cli, doc, path, tracer)
        loop.calibrations.append((before, min(calibrate(), calibrate())))
        loop.items.append((doc, path))
        loop.latencies.append(elapsed)
        if problems:
            loop.failures.append((doc.name, problems))
    loop.wall = time.perf_counter() - start
    return loop


def at_reference_speed(latencies, calibrations):
    """Each latency scaled by CAL_REF_S over the median of the calibrations
    taken around it and its neighbours: the time it would take at the
    reference speed."""
    out = []
    for k, latency in enumerate(latencies):
        near = [c for pair in calibrations[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1]
                for c in pair]
        out.append(latency * CAL_REF_S / statistics.median(near))
    return out


def tail(latencies):
    """(percentile, value): the highest ladder percentile with at least ten
    samples above it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            chosen = p
    return chosen, ordered[_rank(chosen, n) - 1]


def _rank(p, n):
    """Nearest rank (1-based) of percentile p among n samples."""
    return max(1, min(n, math.ceil(p * n / 100)))


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed, workdir):
    """Import cpk, write the first round, run the warm-up document.
    Returns (cli, endless (doc, path) items, warm-up doc and path, warm-up
    problems). Later rounds are written as the loop reaches them."""
    cli = load_cpk()
    os.makedirs(workdir)
    rounds = workloads.round_stream(workload, seed)
    first = next(rounds)
    first_paths = write_docs(first, workdir)
    warm = workloads.warmup_doc(workload, seed)
    warm_path = write_docs([warm], workdir)[0]
    _, problems = run_doc(cli, warm, warm_path)

    def items():
        yield from zip(first, first_paths)
        for docs in rounds:
            yield from zip(docs, write_docs(docs, workdir))

    return cli, items(), (warm, warm_path), problems


def setup_probe(workload, seed):
    """(set-up time at the reference speed, raw set-up time) of one fresh
    interpreter: runs this file in --setup-probe mode."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["raw_s"]


# ---------------------------------------------------------------------------
# tracing


def profile_counts(cli, doc, path):
    """cProfile's ncalls of the functions the tracer check compares."""
    import cProfile
    import pstats

    import cpk.abelian
    import cpk.exactseq
    import cpk.fock

    wanted = {
        (cpk.abelian.__file__, "smith_normal_form"): "abelian.snf",
        (cpk.abelian.__file__, "reduce"): "abelian.reduce",
        (cpk.exactseq.__file__, "verify_exact"): "exactseq.verify_exact",
        (cpk.fock.__file__, "build_fock"): "fock.build",
        (cpk.fock.__file__, "annihilator"): "fock.annihilator",
    }
    prof = cProfile.Profile()
    prof.enable()
    try:
        _, problems = run_doc(cli, doc, path)
    finally:
        prof.disable()
    counts = dict.fromkeys(wanted.values(), 0)
    for (filename, _, func), row in pstats.Stats(prof).stats.items():
        name = wanted.get((filename, func))
        if name is not None:
            counts[name] += row[1]
    return counts, problems


def tracer_check(cli, doc, path):
    """Trace one document and profile it: the call counts must agree.
    Returns (mismatches, SNF calls from reduce, all SNF calls, problems)."""
    from tracer import Tracer

    expected, problems = profile_counts(cli, doc, path)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_problems = run_doc(cli, doc, path, tracer)
    finally:
        tracer.restore()
    got = tracer.counts()
    mismatches = [
        f"{name}: traced {got.get(name, 0)} calls, cProfile {want}"
        for name, want in expected.items() if got.get(name, 0) != want
    ]
    from_reduce, total = tracer.snf_from_reduce()
    return mismatches, from_reduce, total, problems + traced_problems


def traced_run(cli, args, items, warm, workdir):
    """Per-layer metrics: a traced pass for half the time, then the same
    documents untraced for the overhead. Returns (metrics, failures,
    attempted, notes)."""
    from tracer import Tracer

    if args.workload == "ktheory-graph":
        check_doc = workloads.cyclic_pair_doc(*CHECK_CYCLE)
        check_path = write_docs([check_doc], workdir)[0]
    else:
        check_doc, check_path = warm
    mismatches, from_reduce, snf_total, check_problems = tracer_check(
        cli, check_doc, check_path
    )

    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(cli, items, args.seconds / 2, tracer=tracer)
    finally:
        tracer.restore()
    untraced = closed_loop(cli, traced.items)
    traced_s = sum(at_reference_speed(traced.latencies, traced.calibrations))
    untraced_s = sum(at_reference_speed(untraced.latencies, untraced.calibrations))
    overhead = traced_s - untraced_s

    metrics = tracer.metrics()
    metrics["abelian.snf_from_reduce_frac"] = from_reduce / snf_total if snf_total else 0.0
    metrics["trace.docs"] = len(traced.items)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced_s
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans_path)

    failures = traced.failures + untraced.failures
    if check_problems:
        failures.append((check_doc.name, check_problems))
    if mismatches:
        failures.append((check_doc.name + " tracer check", mismatches))
    notes = [
        f"tracer check on {check_doc.name}: "
        + ("call counts match cProfile" if not mismatches else "; ".join(mismatches)),
        f"SNF calls from Presentation.reduce on {check_doc.name}: "
        f"{from_reduce} of {snf_total}",
        f"traced {traced_s:.3f} s, untraced {untraced_s:.3f} s at reference speed "
        f"(raw {sum(traced.latencies):.3f} s and {sum(untraced.latencies):.3f} s) over "
        f"the same {len(traced.items)} documents: overhead {overhead:.3f} s",
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, failures, 2 * len(traced.items) + 2, notes  # + check, warm-up


# ---------------------------------------------------------------------------
# reporting


def environment_line():
    import numpy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"BLAS {blas} with {os.environ['OPENBLAS_NUM_THREADS']} thread(s), "
        f"{os.cpu_count()} cpu(s)"
    )


def emit(args, metrics, units, failures, attempted, notes):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, value in metrics.items():
        suffix = notes.get(name, "")
        print(f"  {name:34s} {value:>14.6g} {units[name]:10s} {suffix}".rstrip())
    for line in notes.get("", []):
        print(f"  {line}")
    for name, problems in failures[:20]:
        print(f"  FAILED {name}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))


def run_workload(args):
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        cli, items, warm, warm_problems = setup(args.workload, args.seed, workdir)
        raw_setup_s = time.perf_counter() - _T0
        cal_end = min(calibrate() for _ in range(5))
        setup_s = raw_setup_s * CAL_REF_S / statistics.mean((_CAL_START, cal_end))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "raw_s": raw_setup_s}))
            return 0
        failures = [("warmup", warm_problems)] if warm_problems else []

        if args.trace:
            from tracer import PER_LAYER

            metrics, more, attempted, lines = traced_run(cli, args, items, warm, workdir)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            emit(args, {k: metrics[k] for k in PER_LAYER}, units, failures + more,
                 attempted, {"": [environment_line()] + lines})
            return 0

        # Half the fresh set-ups run before the loop and half after, so
        # that setup_s samples the machine at both ends of the run.
        probes = (SETUP_SAMPLES - 1) // 2
        samples = [(setup_s, raw_setup_s)] + [
            setup_probe(args.workload, args.seed) for _ in range(probes)
        ]
        loop = closed_loop(cli, items, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples += [setup_probe(args.workload, args.seed) for _ in range(probes)]
        setups, raw_setups = zip(*samples)
        failures += loop.failures
        raw, wall = loop.latencies, loop.wall
        latencies = at_reference_speed(raw, loop.calibrations)
        speeds = [c for pair in loop.calibrations for c in pair]
        p, tail_value = tail(latencies)
        n = len(latencies)
        metrics = {
            "docs_per_s": n / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "docs_per_s": f"({n} documents; raw {n / sum(raw):.4g}/s, "
                          f"{wall:.3f} s wall)",
            "latency_p50_s": f"(n={n}; raw {statistics.median(raw):.4g} s)",
            "latency_tail_s": f"(p{p:g}, n={n}, {n - _rank(p, n)} beyond; "
                              f"raw {tail(raw)[1]:.4g} s)",
            "setup_s": f"(median of {len(setups)}: "
                       + ", ".join(f"{s:.3f}" for s in setups)
                       + f"; raw {statistics.median(raw_setups):.4g} s)",
            "": [f"fail_frac {len(failures) / (n + 1):.6g} frac "
                 f"({len(failures)} of {n + 1} documents, warm-up included)",
                 f"calibration median {statistics.median(speeds) * 1e3:.4g} ms "
                 f"(reference {CAL_REF_S * 1e3:g} ms)",
                 environment_line()],
        }
        emit(args, metrics, END_TO_END, failures, n + 1, notes)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            os.rmdir(os.path.dirname(workdir))


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, check=False, timeout=600)
        status = status or done.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
