"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.py writes to perfbench/out/results/
(copy that directory aside after running the base commit). For every workload
and metric the table gives each side's median and quartiles over its runs,
and the change of the medians as a share of the base median; the end-to-end
bound of BENCHMARK.json is shown where there is one.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    values = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        run = json.loads(path.read_text())
        for name, m in run["result"]["metrics"].items():
            values[run["workload"], name].append(m["value"])
    return values


def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q1, q3


def main(base_dir, new_dir):
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    print(f"{'workload':14s} {'metric':50s} {'base median [q1, q3]':>32s} {'new median [q1, q3]':>32s}  change  bound")
    for key in sorted(set(base) & set(new)):
        b, n = summary(base[key]), summary(new[key])
        change = (n[0] - b[0]) / b[0] if b[0] else float("nan")
        bound = f"{bounds[key[1]]:.2f}" if key[1] in bounds else ""
        print(f"{key[0]:14s} {key[1]:50s} {b[0]:12.5g} [{b[1]:.5g}, {b[2]:.5g}] "
              f"{n[0]:12.5g} [{n[1]:.5g}, {n[2]:.5g}] {change:+7.1%}  {bound}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
