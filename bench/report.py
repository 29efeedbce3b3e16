"""Reference figures: two sets of untraced runs in alternating order, and traced runs.

    python3 bench/report.py --seeds 1-10 --seconds 20 > bench/out/report.txt

For each workload and seed, runs set A and set B untraced (A first on odd
seeds, B first on even ones), then one traced run. Every run's output goes
to bench/out/report.jsonl; the summary printed at the end gives, per
workload and set, each end-to-end metric's median and quartiles, reported
and raw, its spread (quartile distance / median) against its bound, how far
set B's median moved from set A's, the end-to-end metrics of the first two
seeds side by side, and the layer metrics of the traced runs with each
layer's share of a traced round.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    raw = json.loads(lines[-2].removeprefix("raw "))
    return {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1]), "raw": raw}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summary(records: list[dict]) -> None:
    for workload in WORKLOADS:
        print(f"\n## {workload}\n")
        sets = {}
        for r in records:
            if r["workload"] == workload and not r["trace"]:
                sets.setdefault(r["set"], []).append(r)
        for label, runs in sorted(sets.items()):
            fails = sorted({(r["result"]["failed"], r["result"]["attempted"]) for r in runs})
            print(f"set {label}: {len(runs)} runs, failed/attempted per run {fails}")
        print("\n| metric | set | median | q1 | q3 | spread | bound | raw median | raw q1 | raw q3 | raw spread |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
        medians = {}
        for m in SPEC["end_to_end"]:
            name = m["name"]
            for label, runs in sorted(sets.items()):
                rep = [r["result"]["metrics"][name]["value"] for r in runs]
                raw = [r["raw"][name] for r in runs]
                q1, med, q3 = quartiles(rep)
                r1, rmed, r3 = quartiles(raw)
                medians[name, label] = med
                print(f"| {name} | {label} | {med:.5g} | {q1:.5g} | {q3:.5g} | {(q3 - q1) / med:.1%} | "
                      f"{m['bound']:.0%} | {rmed:.5g} | {r1:.5g} | {r3:.5g} | {(r3 - r1) / rmed:.1%} |")
        if len(sets) == 2:
            print("\n| metric | B median / A median - 1, in the worse direction | bound |")
            print("| --- | --- | --- |")
            for m in SPEC["end_to_end"]:
                a, b = medians[m["name"], "A"], medians[m["name"], "B"]
                worse = (b / a - 1) if m["better"] == "lower" else (a / b - 1)
                print(f"| {m['name']} | {worse:+.1%} | {m['bound']:.0%} |")
        first, second = (sorted({r["seed"] for r in sets.get("A", [])}) + [None, None])[:2]
        if second is not None:
            by_seed = {r["seed"]: r for r in sets["A"]}
            print(f"\n| metric | seed {first} | seed {second} |")
            print("| --- | --- | --- |")
            for m in SPEC["end_to_end"]:
                a, b = (by_seed[s]["result"]["metrics"][m["name"]]["value"] for s in (first, second))
                print(f"| {m['name']} | {a:.5g} | {b:.5g} |")
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        if traced:
            print(f"\ntraced runs: {len(traced)}\n")
            print("| layer metric | median | q1 | q3 | share of a traced round |")
            print("| --- | --- | --- | --- | --- |")
            round_s = statistics.median(r["result"]["metrics"]["trace.round_s"]["value"] for r in traced)
            for m in SPEC["per_layer"]:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in traced]
                q1, med, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
                share = f"{med / round_s:.1%}" if m["unit"] == "s" and m["name"] != "trace.round_s" else ""
                print(f"| {m['name']} | {med:.5g} {m['unit']} | {q1:.5g} | {q3:.5g} | {share} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="range a-b")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--summary-only", action="store_true", help="summarise the existing log")
    args = parser.parse_args()
    log = HERE / "out" / "report.jsonl"
    log.parent.mkdir(exist_ok=True)
    if not args.summary_only:
        lo, hi = map(int, args.seeds.split("-"))
        with open(log, "w") as fh:
            for workload in args.workloads.split(","):
                for seed in range(lo, hi + 1):
                    for label in ("AB" if seed % 2 else "BA"):
                        rec = run(workload, seed, args.seconds, 0) | {"set": label}
                        fh.write(json.dumps(rec) + "\n")
                        fh.flush()
                    fh.write(json.dumps(run(workload, seed, args.seconds, 1) | {"set": "T"}) + "\n")
                    fh.flush()
    summary([json.loads(line) for line in log.read_text().splitlines()])
    return 0


if __name__ == "__main__":
    sys.exit(main())
