"""Compare two result sets written by ``run.py --workload all``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload x end-to-end metric: both medians, the relative
difference of B against A, the bound (``run.SAME_SEED_BOUND``) and a
verdict:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — either set's run-to-run spread (interquartile range
  over its repeats, as a share of the median) is wider than the bound,
  or is unknown because a set has fewer than 4 repeats, so the pair
  cannot be told apart;
* ``ok``         — otherwise.

``failed_commit_ratio`` is compared absolutely over all repeats: any
increase is ``regressed``.

Exits 1 when any pair regressed, and 2 without comparing when the two
sets did not measure the same load (seed, ``--seconds``, ``--quick`` or
a workload's op-stream digest differ).
"""

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e.run import (  # noqa: E402
    END_TO_END, FAILED_RATIO, SAME_SEED_BOUND,
)
from benchmarks.e2e.stats import spread  # noqa: E402


def same_load(a, b):
    """Why the two sets cannot be compared, as a list of strings."""
    reasons = [
        f"{key}: {a.get(key)!r} against {b.get(key)!r}"
        for key in ("seed", "seconds", "quick")
        if a.get(key) != b.get(key)
    ]
    if set(a["workloads"]) != set(b["workloads"]):
        reasons.append("the sets hold different workloads")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        left, right = (s["workloads"][name]["stream_digest"] for s in (a, b))
        if left != right:
            reasons.append(f"{name}: the op streams differ")
    return reasons


def verdict(a, b, spec):
    """``(how much worse B is, verdict)`` for one metric's two entries."""
    if spec["name"] == FAILED_RATIO["name"]:
        worse = b["value"] - a["value"]
        return worse, "regressed" if worse > 0 else "ok"
    bound = SAME_SEED_BOUND[spec["name"]]
    worse = (b["value"] - a["value"]) / a["value"]
    if spec["better"] == "higher":
        worse = -worse
    spreads = [spread(a["values"]), spread(b["values"])]
    if None in spreads or max(spreads) > bound:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def compare(a, b):
    """Rows ``(workload, metric, a, b, unit, worse, bound, verdict)``."""
    rows = []
    for workload, result in a["workloads"].items():
        other = b["workloads"][workload]
        for name, spec in END_TO_END.items():
            left = result["end_to_end"][name]
            right = other["end_to_end"][name]
            worse, word = verdict(left, right, spec)
            rows.append((workload, name, left["value"], right["value"],
                         spec["unit"], worse, SAME_SEED_BOUND[name], word))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for side, result in (("A", a), ("B", b)):
        print(f"# {side}: {result['stamp']} seed={result['seed']} "
              f"seconds={result['seconds']}")
    reasons = same_load(a, b)
    if reasons:
        print("the two sets did not measure the same load:\n  "
              + "\n  ".join(reasons), file=sys.stderr)
        return 2
    rows = compare(a, b)
    print(f"{'workload':12s} {'metric':24s} {'A':>12s} {'B':>12s} "
          f"{'unit':5s} {'B worse by':>10s} {'bound':>6s}  verdict")
    for workload, name, left, right, unit, worse, bound, word in rows:
        print(f"{workload:12s} {name:24s} {left:12.4f} {right:12.4f} "
              f"{unit:5s} {worse:+10.1%} {bound:6.0%}  {word}")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"# {len(rows)} pairs: {regressed} regressed, "
          f"{unresolved} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
