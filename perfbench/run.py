"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; homext is imported from its ``src``.
Set-up is importing homext, generating the inputs and building homext's
objects.  Then whole rounds run, each over every instance of the workload
with homext's caches cleared first, until ``--seconds`` have passed (a
first round plus at least three more).  The first round's outputs are
checked against references computed apart from the program, and every
later round must reproduce them exactly.

Times are CPU seconds of this single-threaded process, and the round's
cost is reported against a fixed reference routine timed beside it.  On
the shared virtual machine the benchmark was written on, the CPU time of
identical rounds varied by up to a factor of 1.8 within one process, in
slowdowns lasting from a fraction of a second to tens of seconds, and the
spread (IQR / median) of a run's summed CPU time across runs reached
0.40.  The slowdowns hit the reference routine in the same proportion,
so the first round
cuts the instances into chunks of about ``CHUNK_S`` CPU seconds, every
later round times the reference before each chunk and after the last, and
each chunk's CPU time is divided by the mean of the two reference times
around it.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``round_cost`` (one round in reference units: the
sum over chunks of each chunk's median ratio across rounds after the
first), ``setup_s`` (CPU time from the start of the process to the end of
set-up, so a cold start) and ``peak_rss_mb`` (peak resident set after the
timed rounds, before the checks import scipy).  With ``--trace 1`` no
reference runs; untraced and traced rounds alternate and the object holds
the per-layer metrics of the traced rounds (counts of one round, median
busy and self wall times) and ``trace.overhead_s``, the median CPU time of
a traced round minus that of an untraced one.  Wall and CPU time of every
round go to standard error.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

MIN_ROUNDS = 3
CHUNK_S = 0.04          # CPU seconds of instances between two reference timings
# one thread: BLAS pools must not start more before numpy is imported
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's src first on the path and import homext from it;
    refuse any other installed copy."""
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "homext" / "__init__.py").is_file():
        sys.exit(f"perfbench: no homext sources under {src}")
    sys.path.insert(0, str(src))
    import homext
    if Path(homext.__file__).resolve().parent != src / "homext":
        sys.exit(f"perfbench: homext imported from {homext.__file__}, not {src}")


def clear_program_caches():
    """Empty every functools cache in homext, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "homext" or name.startswith("homext."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


_REF_MATRIX = None


def reference_s() -> float:
    """CPU seconds of a fixed routine of about 2 ms that mixes what homext
    spends its time on: Fraction and int arithmetic, dict updates, short
    sorts and small numpy calls.  The collector is off while it runs, so
    its time does not depend on how many objects the program holds."""
    global _REF_MATRIX
    import numpy as np
    if _REF_MATRIX is None:
        _REF_MATRIX = np.arange(16.0).reshape(4, 4)
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        acc, counts, s = Fraction(0), {}, 0
        for i in range(1, 400):
            acc += Fraction(i % 7, i % 5 + 1)
            counts[i & 63] = counts.get(i & 63, 0) + i
            s += sum(sorted((i * 7919 % 13, i % 3, i % 11, 5)))
            if i % 20 == 0:
                s += int((_REF_MATRIX @ _REF_MATRIX)[1, 1])
        return process_time() - t0
    finally:
        if gc_was_on:
            gc.enable()


def chunk_starts(times) -> list[int]:
    """Indices of the instances that start a chunk: each chunk holds the
    fewest consecutive instances whose CPU time in ``times`` reaches
    CHUNK_S, the last one what is left."""
    starts, acc = [0], 0.0
    for i, t in enumerate(times):
        if acc >= CHUNK_S:
            starts.append(i)
            acc = 0.0
        acc += t
    return starts


def round_cost(rounds) -> float:
    """Sum over chunks of the median, across rounds, of the chunk's CPU
    time over the mean of the reference times before and after it.
    ``rounds`` holds, per round, the list of (chunk CPU s, reference s
    before it) and the reference time after the last chunk."""
    ratios = [[cpu / ((ref + (chunks[c + 1][1] if c + 1 < len(chunks) else last)) / 2)
               for c, (cpu, ref) in enumerate(chunks)]
              for chunks, last in rounds]
    return sum(map(statistics.median, zip(*ratios)))


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    import layertrace
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    setup_s = process_time()            # the process's CPU time since it started

    tracer = layertrace.Tracer() if args.trace else None
    plain, traced, walls, snaps = [], [], [], []     # CPU, CPU, wall seconds per round
    costed = []                         # per untraced round after the first: chunks, last ref
    starts = None                       # chunk starts, from the first round's times
    refs: list[float] = []              # reference times of the current round

    def time_reference(index):
        if index in starts:
            refs.append(reference_s())

    first = None
    mismatched = 0
    failed = rounds = 0
    start = perf_counter()
    while rounds < (MIN_ROUNDS + 1) * (2 if tracer else 1) or perf_counter() - start < args.seconds:
        for tracing in ((False, True) if tracer else (False,)):
            clear_program_caches()
            wl.errors.clear()
            wl.times.clear()
            refs.clear()
            wl.before_instance = time_reference if starts is not None and not tracer else None
            if tracing:
                tracer.reset()
                tracer.install()
            t0, c0 = perf_counter(), process_time()
            try:
                out = wl.run()
            finally:
                wall, cpu = perf_counter() - t0, process_time() - c0
                if tracing:
                    tracer.uninstall()
            if tracing:
                traced.append(cpu)
                snaps.append(tracer.snapshot())
            else:
                plain.append(cpu)
                walls.append(wall)
                if starts is None:
                    starts = set(chunk_starts(wl.times))
                elif wl.before_instance is not None:
                    bounds = sorted(starts) + [len(wl.times)]
                    chunks = [sum(wl.times[a:b]) for a, b in zip(bounds, bounds[1:])]
                    costed.append((list(zip(chunks, refs)), reference_s()))
            failed += len(wl.errors)
            rounds += 1
            if first is None:
                first = out
            elif out != first:
                mismatched += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems = wl.check(first)
    except Exception as exc:            # a malformed output fails the checks, not the run
        problems = [f"checks raised {exc!r}"]
    if mismatched:
        problems.append(f"{mismatched} rounds gave outputs different from the first")
    if tracer:
        metrics, trace_problems = layer_metrics(layertrace, wl, snaps, plain, traced)
        problems += trace_problems
    else:
        metrics = {"round_cost": (round_cost(costed), "ref"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    for msg in problems[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} rounds={rounds} "
          f"instances/round={wl.instances} setup_s={setup_s:.3f} "
          f"chunks={len(starts)} round_wall_s={[round(t, 3) for t in walls]} "
          f"round_cpu_s={[round(t, 3) for t in plain]}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * wl.instances,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def layer_metrics(trace, wl, snaps, plain, traced):
    """Per-layer metrics and any inconsistency among the traced rounds."""
    problems = []
    units = {name: unit for name, unit, _ in trace.metric_specs()}
    metrics = {}
    for name in snaps[0]:
        values = [s[name] for s in snaps]
        if name.endswith(trace.COUNT_SUFFIXES):
            if any(v != values[0] for v in values):
                problems.append(f"traced rounds disagree on {name}: {values}")
            metrics[name] = (values[0], units[name])
        else:
            metrics[name] = (statistics.median(values), units[name])
    for layer, want in wl.expected_calls.items():
        got = snaps[0][f"{layer}.calls"]
        if got != want:
            problems.append(f"{layer}.calls is {got}, the workload made {want}")
    lp = snaps[0]["simplex.linprog.calls"]
    if bool(lp) != wl.uses_lp:
        problems.append(f"simplex.linprog.calls is {lp} on {wl.name}")
    name, unit, _ = trace.OVERHEAD
    metrics[name] = (statistics.median(traced) - statistics.median(plain), unit)
    return metrics, problems


if __name__ == "__main__":
    main()
