"""cavmotion benchmark: drive the CLI the way its users do and time it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next in-process `cli.main([...])`
request, writing CSV (and SVG) to a scratch file, starts when the previous
one returns.  Requests come from a seeded stream (`workloads.py`) and run
for S seconds; every output is checked outside the timed region
(`checks.py`).  With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 each request runs once untraced
and once with every layer function wrapped (`spans.py`), alternating which
goes first, and the line carries the per-layer metrics.  Request and
set-up times are pace-adjusted (`pace.py`): scaled by the speed of a
fixed reference kernel timed alongside them, so that the drift of a shared
machine's speed cancels; the raw wall times are kept in the run file.
The program is imported from src/ of the checkout this file sits in;
without it the benchmark exits non-zero before printing a result.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = """import time
{loop}
before = pace_loop()
start = time.perf_counter()
import cavmotion.cli as cli
cli.build_parser()
seconds = time.perf_counter() - start
print(seconds, before, pace_loop())
"""
TAIL_BEYOND = 10
PACE_EVERY_S = 0.25  # longest stretch of requests between two pace samples


def cap_threads():
    """Hold BLAS/OpenMP pools to the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc):
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")}
                for key in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas, "nproc": nproc, "machine": platform.machine(), "system": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup():
    """Median pace-adjusted and raw seconds for a fresh interpreter to
    import cavmotion.cli and build the parser.

    The interpreter paces itself with `pace.LOOP_SOURCE` around the import.
    """
    import pace

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = SETUP_CODE.format(loop=pace.LOOP_SOURCE)
    raw, adjusted = [], []
    for _ in range(SETUP_SAMPLES + 1):  # the first only warms the file caches
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, before, after = (float(v) for v in done.stdout.split())
        raw.append(seconds)
        adjusted.append(seconds * pace.LOOP_NOMINAL_S / (0.5 * (before + after)))
    return statistics.median(adjusted[1:]), statistics.median(raw[1:])


def steal_ticks():
    """The machine's CPU steal counter from /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def tail_latency(latencies, cap):
    """Latency at the highest percentile, up to `cap`, with ten samples beyond it.

    The cap keeps a faster program, which completes more requests in the
    same seconds, from being judged at a higher percentile than its parent.
    """
    import numpy as np
    pct = max(50.0, min(cap, 100.0 * (1.0 - TAIL_BEYOND / len(latencies))))
    value = float(np.percentile(latencies, pct))
    return value, pct, sum(1 for v in latencies if v > value)


class Client:
    """Runs requests through cli.main into one scratch output file."""

    def __init__(self, cli, scratch):
        self.cli = cli
        self.csv = scratch / "out.csv"
        self.svg = scratch / "out.svg"
        self.cpu_seconds = 0.0

    def call(self, argv):
        """(seconds, exit code, CSV text, SVG text or None) of one request.

        Its process CPU seconds are left in `cpu_seconds`.
        An exception escaping cli.main is a failed request with exit code -1.
        """
        for path in (self.csv, self.svg):
            path.unlink(missing_ok=True)
        argv = [*argv, "--out", str(self.csv)]
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - start
        self.cpu_seconds = time.process_time() - cpu_start
        csv = self.csv.read_text(encoding="utf-8") if self.csv.exists() else ""
        svg = self.svg.read_text(encoding="utf-8") if self.svg.exists() else None
        return seconds, rc, csv, svg


def run(args):
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    import random

    import cavmotion
    from cavmotion import cli, conditional, fock

    import checks
    import pace
    import spans
    import workloads

    if not Path(cavmotion.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported cavmotion from {cavmotion.__file__}, not from {SRC}")
    env = environment(nproc)
    setup_s, setup_raw_s = measure_setup()
    reference = pace.Reference()

    workload = workloads.WORKLOADS[args.workload]
    tally = checks.Tally(conditional, fock, random.Random(f"oracle:{args.seed}"))
    recorder = spans.SpanRecorder() if args.trace else None
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(cli, scratch)
        client.call(workload.warmup)
        gc.collect()
        # per measured request: raw wall seconds, CPU seconds, rows, block
        # index and the pace segment whose bracketing samples scale it
        raw, cpu, request_rows, block_of, segment_of = [], [], [], [], []
        traced_latencies, traced_shape = [], {}
        index, blocks_done = 0, 0
        steal_before = steal_ticks()
        paces = [reference.sample()]
        last_pace = time.perf_counter()
        deadline = last_pace + args.seconds
        # stop only between blocks, so every run measures whole blocks
        for block in workloads.blocks(args.workload, args.seed):
            if blocks_done and time.perf_counter() >= deadline:
                break
            for request in block:
                if recorder is None:
                    seconds, rc, csv, svg = client.call(request.argv)
                    cpu_seconds = client.cpu_seconds
                else:
                    # alternate the order so neither side always runs on warm caches
                    for traced in ((False, True) if index % 2 == 0 else (True, False)):
                        if traced:
                            with recorder.installed(index):
                                traced_seconds, traced_rc, traced_csv, traced_svg = client.call(request.argv)
                        else:
                            seconds, rc, csv, svg = client.call(request.argv)
                            cpu_seconds = client.cpu_seconds
                    traced_latencies.append(traced_seconds)
                    if (traced_rc, traced_csv, traced_svg) != (rc, csv, svg):
                        tally.problems.append(f"request {index}: traced output differs from untraced")
                cpu.append(cpu_seconds)
                raw.append(seconds)
                segment_of.append(len(paces))
                block_of.append(blocks_done)
                shape = tally.check(request, rc, csv, svg)
                request_rows.append(shape["rows"])
                if time.perf_counter() - last_pace >= PACE_EVERY_S:
                    paces.append(reference.sample())
                    last_pace = time.perf_counter()
                if recorder is not None:
                    for key, count in shape.items():
                        traced_shape[key] = traced_shape.get(key, 0) + count
                    traced_shape["bytes_out"] = (traced_shape.get("bytes_out", 0)
                                                 + len(traced_csv.encode()) + len((traced_svg or "").encode()))
                index += 1
            if segment_of[-1] == len(paces):
                paces.append(reference.sample())
                last_pace = time.perf_counter()
            blocks_done += 1
        steal_after = steal_ticks()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        probe = workloads.decoupled_probe(random.Random(f"probe:{args.seed}").uniform(1e5, 1e6))
        _, rc, csv, _ = client.call(probe.argv)
        tally.check(probe, rc, csv, probe_degree=checks.DECOUPLED_DEGREE)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    latencies = [seconds * factor for seconds, factor in zip(raw, pace.factors(paces, segment_of))]
    block_rows, block_seconds, block_raw = [0] * blocks_done, [0.0] * blocks_done, [0.0] * blocks_done
    for block, rows, adjusted, seconds in zip(block_of, request_rows, latencies, raw):
        block_rows[block] += rows
        block_seconds[block] += adjusted
        block_raw[block] += seconds
    block_rates = [rows / seconds for rows, seconds in zip(block_rows, block_seconds)]
    tail, tail_pct, beyond = tail_latency(latencies, workload.tail_cap)
    pace_q1, _, pace_q3 = statistics.quantiles(paces, n=4)
    details = {
        "requests": len(latencies), "rows_out": sum(request_rows), "block_rates": block_rates,
        "failed_frac": tally.failed / tally.attempted,
        "pace": {"nominal_s": pace.NOMINAL_S, "samples": len(paces), "median_s": statistics.median(paces),
                 "q1_s": pace_q1, "q3_s": pace_q3},
        "raw": {"setup_s": setup_raw_s,
                "points_per_s": statistics.median(rows / seconds for rows, seconds in zip(block_rows, block_raw)),
                "request_p50_s": statistics.median(raw),
                "request_tail_s": tail_latency(raw, workload.tail_cap)[0]},
        "cpu_over_wall": sum(cpu) / sum(raw),
        "steal_ticks": None if steal_before is None or steal_after is None else steal_after - steal_before,
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "oracle_rows_checked": tally.oracle_checked,
        "failure_reasons": dict(tally.reasons), "problems": tally.problems[:20],
    }
    # in a traced run these come from the untraced half of each request pair
    values = {
        "setup_s": setup_s,
        "points_per_s": statistics.median(block_rates),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail,
        "peak_rss_mib": peak_rss_mib,
        "rows_ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    if recorder is not None:
        values.update(layer_metrics(recorder, traced_shape, sum(traced_latencies) / sum(raw) - 1.0))
        OUT.mkdir(exist_ok=True)
        recorder.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return values, {"correct": not tally.problems, "attempted": tally.attempted,
                    "failed": tally.failed}, env, details


def layer_metrics(recorder, shape, overhead_frac):
    """Per-layer calls, self time, work ratios and counts of the traced requests."""
    totals = recorder.layer_totals()
    values = {"trace.overhead_frac": overhead_frac}
    for name, (calls, self_s, _) in totals.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s

    def per(name, base):
        return totals[name][0] / shape.get(base, 0) if shape.get(base) else 0.0

    values["fock.oscillator_wavefunctions.per_outcome"] = per("fock.oscillator_wavefunctions", "outcomes")
    values["fock.coherent_overlap.per_outcome"] = per("fock.coherent_overlap", "outcomes")
    values["spectra.transfer.per_point"] = per("spectra.transfer", "spectral_points")
    values["cascade.intensity_roots.per_drive"] = per("cascade.intensity_roots", "drives")
    outcomes = shape.get("outcomes", 0)
    values["conditional.resolved_frac"] = shape.get("resolved", 0) / outcomes if outcomes else 0.0
    verdicts = totals["spectra.classify_stability"][0]
    values["spectra.stable_frac"] = recorder.stable_verdicts / verdicts if verdicts else 0.0
    values["spectra.transfer.errors"] = totals["spectra.transfer"][2]
    values["cli.bytes_out"] = shape.get("bytes_out", 0)
    return values


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "cavmotion" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'cavmotion'}", file=sys.stderr)
        return 2
    values, result, env, details = run(args)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in reported if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "details": details, **result,
              "all_metrics": {name: {"value": value, "unit": units.get(name)} for name, value in values.items()}}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {details['requests']} requests, "
          f"{details['rows_out']} rows, attempted {result['attempted']} failed {result['failed']} "
          f"(failed_frac {details['failed_frac']:.6g}), correct {result['correct']}")
    if details["failure_reasons"]:
        print(f"failures by reason: {json.dumps(details['failure_reasons'], sort_keys=True)}")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    print(f"request_tail_s is p{details['tail_percentile']:.4g} with "
          f"{details['tail_samples_beyond']} of {details['requests']} samples beyond it")
    pace_info = details["pace"]
    print(f"pace: reference kernel median {pace_info['median_s']:.6g} s (quartiles {pace_info['q1_s']:.6g}-"
          f"{pace_info['q3_s']:.6g}) over {pace_info['samples']} samples against nominal {pace_info['nominal_s']} s; "
          f"CPU/wall {details['cpu_over_wall']:.4g}; steal ticks {details['steal_ticks']}")
    print("raw wall (not pace-adjusted): " + ", ".join(f"{k} = {v:.6g}" for k, v in details["raw"].items()))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units.get(name)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
