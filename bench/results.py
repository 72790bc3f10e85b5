"""Collect benchmark runs into a results file; compare two results files.

    python3 bench/results.py collect RESULTS.json bench/out/run-*.json
    python3 bench/results.py compare EARLIER.json LATER.json

A results file holds, per workload and metric, every run's value and seed
with their median and quartiles, and each run's environment as an index
into the file's list of distinct environments.  End-to-end metrics come
from untraced runs and per-layer metrics from traced ones.  `compare`
prints each metric's change of median against an earlier results file
and marks end-to-end metrics that got worse by more than their bound in
BENCHMARK.json.  Where both files ran the same seeds it also prints the
median of the per-seed ratios; run the two builds alternately, seed by
seed, and that ratio cancels what slow drift of the machine is left
after pace adjustment.  It only reports: its exit code is 0 whatever
moved, since timings on a shared machine flake.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def collect(out_path, run_paths):
    runs = [json.loads(Path(path).read_text(encoding="utf-8")) for path in run_paths]
    workloads, envs = {}, []
    for run in sorted(runs, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        if run["env"] not in envs:
            envs.append(run["env"])
        entry = workloads.setdefault(run["workload"], {"runs": [], "metrics": {}})
        entry["runs"].append({key: run[key] for key in ("seed", "seconds", "trace", "correct", "attempted", "failed")}
                             | {"env": envs.index(run["env"]),
                                "details": {k: v for k, v in run["details"].items() if k != "block_rates"}})
        for name, metric in run["metrics"].items():
            series = entry["metrics"].setdefault(name, {"unit": metric["unit"], "values": [], "seeds": []})
            series["values"].append(metric["value"])
            series["seeds"].append(run["seed"])
    for entry in workloads.values():
        for metric in entry["metrics"].values():
            seeds = metric.pop("seeds")
            metric.update(summarize(metric.pop("values")))
            metric["seeds"] = seeds
    Path(out_path).write_text(json.dumps({"envs": envs, "workloads": workloads}, indent=1) + "\n",
                              encoding="utf-8")
    for name, entry in workloads.items():
        for metric_name, metric in entry["metrics"].items():
            if "." not in metric_name:
                print(f"{name} {metric_name}: median {metric['median']:.6g} {metric['unit']}, "
                      f"quartile spread {metric['spread']:.2%} over {len(metric['values'])} runs")


def compare(earlier_path, later_path):
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(Path(earlier_path).read_text(encoding="utf-8"))["workloads"]
    later = json.loads(Path(later_path).read_text(encoding="utf-8"))["workloads"]
    for workload, entry in later.items():
        before = earlier.get(workload)
        if before is None:
            print(f"{workload}: not in {earlier_path}")
            continue
        for name, metric in entry["metrics"].items():
            old = before["metrics"].get(name)
            if old is None or name not in meta:
                continue
            if old["median"] == metric["median"]:
                print(f"{workload} {name}: {metric['median']:.6g} {metric['unit']} unchanged")
                continue
            change = metric["median"] / old["median"] - 1.0 if old["median"] else float("inf")
            higher_better = meta[name]["better"] == "higher"
            verdict = "better" if (change > 0) == higher_better else "worse"
            bound = meta[name].get("bound")
            flag = " BEYOND BOUND" if bound is not None and verdict == "worse" and abs(change) > bound else ""
            print(f"{workload} {name}: {old['median']:.6g} -> {metric['median']:.6g} {metric['unit']} "
                  f"({change:+.2%}, {verdict}; earlier quartile spread {old['spread']:.2%}){flag}"
                  f"{paired(old, metric, higher_better)}")


def paired(old, new, higher_better):
    """Median per-seed change and pairs won by the later file, as text, where both ran the same seeds."""
    if sorted(old.get("seeds", [])) != sorted(new.get("seeds", [])) or len(new.get("seeds", [])) < 2:
        return ""
    before = dict(zip(old["seeds"], old["values"]))
    ratios = [value / before[seed] for seed, value in zip(new["seeds"], new["values"]) if before[seed]]
    if not ratios:
        return ""
    wins = sum((r > 1.0) if higher_better else (r < 1.0) for r in ratios)
    return f"; paired by seed {statistics.median(ratios) - 1.0:+.2%}, later better in {wins} of {len(ratios)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    gather = sub.add_parser("collect", help="aggregate run files into a results file")
    gather.add_argument("out")
    gather.add_argument("runs", nargs="+")
    diff = sub.add_parser("compare", help="print each metric's change against an earlier results file")
    diff.add_argument("earlier")
    diff.add_argument("later")
    args = parser.parse_args(argv)
    if args.action == "collect":
        collect(args.out, args.runs)
    else:
        compare(args.earlier, args.later)
    return 0


if __name__ == "__main__":
    sys.exit(main())
