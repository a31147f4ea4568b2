"""Run the benchmark over several seeds and summarize the spread of each metric.

    python3 perfbench/repeat.py --workload generate --seeds 1-10 [--out FILE]

Runs `run.py` once per seed for the `run_seconds` of BENCHMARK.json, each in
its own process, one after another. For
every metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread, the quartile distance as a share of the median. An
end-to-end metric whose spread is not below a third of its bound in
BENCHMARK.json is marked UNSTEADY (setup_s is exempt: only its median is
bounded). `--out` writes the summary, with every run's values, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print("repeat: seed %d exited with %d" % (seed, proc.returncode), file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        digest = next((l.split()[1] for l in lines if l.startswith("digest")), None)
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "digest": digest, "metrics": result["metrics"]})
        print("seed %d: correct=%s failed=%d/%d %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            " ".join("%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items()
                     if k in bounds)), flush=True)
    summary = {"workload": args.workload, "seconds": seconds, "trace": args.trace,
               "env": next((json.loads(l[5:]) for l in lines if l.startswith("env: ")), None),
               "metrics": {}, "runs": runs}
    steady = True
    for name, m in runs[0]["metrics"].items():
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = m["unit"]
        summary["metrics"][name] = s
        note = ""
        if name in bounds:
            limit = bounds[name] / 3.0
            if name != "setup_s" and s["spread"] >= limit:
                note = "UNSTEADY (limit %.4f)" % limit
                steady = False
            else:
                note = "ok (limit %.4f)" % limit
        print("%-40s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f %s"
              % (name, s["median"], s["q1"], s["q3"], s["spread"], note))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if steady and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
