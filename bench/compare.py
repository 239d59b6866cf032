"""Compare two sets of benchmark runs (JSON-lines files written with --out).

For each workload and metric it prints the parent's and the change's median
and quartiles, the change of the median, and a verdict:

- metrics with a bound (end-to-end): `unresolved` when either side's quartile
  distance exceeds the bound, unless every change run is better (`improved`)
  or worse (`worse`) than every parent run; otherwise `worse` when the median
  got worse by more than the bound, `improved` when it got better by more than
  the parent's quartile distance, else `unchanged`.
- metrics without a bound (per-layer): `improved` or `worse` when the two
  quartile ranges do not overlap (exact counts: when the medians differ),
  else `unchanged`.
"""

import json
import statistics


def load(path) -> dict:
    """{(workload, trace): {metric: [values]}} from a JSON-lines file."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], int(rec["trace"]))
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, []).append(float(m["value"]))
    return runs


def quartiles(vals) -> tuple[float, float, float]:
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(parent, change, better: str, bound=None) -> str:
    sign = 1 if better == "lower" else -1
    p = [sign * v for v in parent]   # from here on, lower is better
    c = [sign * v for v in change]
    pq1, pm, pq3 = quartiles(p)
    cq1, cm, cq3 = quartiles(c)
    if bound is None:
        return "worse" if cq1 > pq3 else "improved" if cq3 < pq1 else "unchanged"
    if max(spread(parent), spread(change)) > bound:
        return "improved" if max(c) < min(p) else "worse" if min(c) > max(p) else "unresolved"
    worse_by = (cm - pm) / abs(pm) if pm else cm - pm
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(parent):
        return "improved"
    return "unchanged"


def _fmt(vals) -> str:
    q1, med, q3 = quartiles(vals)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}"


def main(parent_path, change_path, benchmark_path) -> int:
    with open(benchmark_path) as fh:
        spec = json.load(fh)
    info = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':16s} {'metric':40s} {'parent median [q1, q3]':38s} "
          f"{'change median [q1, q3]':38s} {'delta':>9s}  verdict")
    for key in sorted(set(parent) | set(change)):
        for name, (better, bound) in info.items():
            p, c = parent.get(key, {}).get(name), change.get(key, {}).get(name)
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            delta = f"{(cm - pm) / abs(pm):+.2%}" if pm else f"{cm - pm:+.3g}"
            print(f"{key[0]:16s} {name:40s} {_fmt(p):38s} {_fmt(c):38s} {delta:>9s}  "
                  f"{verdict(p, c, better, bound)}")
    return 0
