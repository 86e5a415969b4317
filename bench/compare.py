"""Compare two benchmark reports against the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py A.json B.json

``A`` is the parent (or an earlier run), ``B`` the candidate.  Each
workload gets its own rows; each end-to-end metric is judged on its own:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the interquartile spread of either side is wider than
                the bound, so the reports cannot tell

Exits 1 if any metric regressed or any workload failed a larger share of
its rounds in B; 0 otherwise.  A combined score is deliberately absent.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def spread(summary: dict) -> float:
    """Interquartile range as a share of the median."""
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict and B's worsening as a share of A's median (negative =
    B is better)."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed", worse
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse
    return "ok", worse


def compare(report_a: dict, report_b: dict, declared: dict) -> tuple[list[dict], bool]:
    """Rows for every (workload, end-to-end metric) both reports hold,
    and whether B is acceptable."""
    rows = []
    acceptable = True
    for name, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(name)
        if entry_b is None:
            continue
        if entry_b["failed_share"] > entry_a["failed_share"]:
            acceptable = False
            rows.append({
                "workload": name, "metric": "failed_share", "verdict": "regressed",
                "a": entry_a["failed_share"], "b": entry_b["failed_share"],
                "worse": entry_b["failed_share"] - entry_a["failed_share"],
                "bound": 0.0, "unit": "ratio",
            })
        for metric in declared["end_to_end"]:
            a = entry_a["end_to_end"][metric["name"]]
            b = entry_b["end_to_end"][metric["name"]]
            verdict, worse = judge(a, b, metric["better"], metric["bound"])
            acceptable = acceptable and verdict != "regressed"
            rows.append({
                "workload": name, "metric": metric["name"], "verdict": verdict,
                "a": a["median"], "b": b["median"], "worse": worse,
                "bound": metric["bound"], "unit": metric["unit"],
            })
    return rows, acceptable


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    report_a, report_b = load(argv[0]), load(argv[1])
    rows, acceptable = compare(
        report_a, report_b, load(os.path.join(ROOT, "BENCHMARK.json"))
    )
    for key in ("commit", "cpu_count", "numpy", "preset", "seed"):
        a, b = report_a["fingerprint"].get(key), report_b["fingerprint"].get(key)
        note = "" if a == b else "   <-- differs"
        print(f"{key:10s} A={a}  B={b}{note}")
    print(f"{'workload':22s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:22s} {row['metric']:18s} {row['a']:12.6g} "
              f"{row['b']:12.6g} {row['worse']:+9.1%} {row['bound']:6.0%}  "
              f"{row['verdict']}")
    noisy = [
        f"{label}:{name}"
        for label, report in (("A", report_a), ("B", report_b))
        for name, entry in report["workloads"].items()
        if entry["noise"]["noisy"]
    ]
    if noisy:
        print("noisy (calibration drifted > 5 % during the workload): "
              + ", ".join(noisy))
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
