"""Shared helpers for the benchmark harness.

Every bench prints a paper-style results block (series/rows matching
the corresponding table or figure) in addition to pytest-benchmark's
timing output, so `pytest benchmarks/ --benchmark-only -s` regenerates
the evaluation artifacts directly.

Workload seeds are deterministic by default (every bench that takes the
``bench_seed`` fixture gets 0) so CI numbers compare run-to-run; pass
``--bench-seed N`` or set ``BENCH_SEED=N`` to explore other workload
draws, and copy the ``reproduce with`` line a bench prints to replay a
specific one.
"""

from __future__ import annotations

import json
import os

import pytest

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

#: Fleet-scale benches hold two sockets per simulated device (client +
#: farm side) in one process; 1k devices needs headroom well past the
#: common 1024 default.
_WANT_NOFILE = 8192


def _ensure_nofile(n: int) -> bool:
    """Raise the soft RLIMIT_NOFILE toward ``n``; True if we got it."""
    if resource is None:
        return True  # no rlimits on this platform; let the bench try
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= n:
        return True
    target = n if hard == resource.RLIM_INFINITY else min(n, hard)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (ValueError, OSError):
        return False
    return resource.getrlimit(resource.RLIMIT_NOFILE)[0] >= n


def pytest_configure(config):
    # Best-effort bump up front so every bench sees the raised limit.
    _ensure_nofile(_WANT_NOFILE)


@pytest.fixture
def require_nofile():
    """Skip (with the fix spelled out) when fd headroom can't be had."""

    def require(n: int) -> None:
        if not _ensure_nofile(n):
            soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
            pytest.skip(
                f"needs RLIMIT_NOFILE >= {n} (soft limit is {soft}); "
                f"raise it with `ulimit -n {n}` and rerun"
            )

    return require


def report(title: str, rows, columns) -> None:
    """Print one experiment's results table."""
    print(f"\n=== {title} ===")
    header = " | ".join(f"{c:>18}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(f"{str(v):>18}" for v in row))


def emit(
    bench_id: str,
    name: str,
    metric: str,
    value,
    threshold=None,
    **extra,
) -> str:
    """Write one machine-readable result as ``BENCH_<id>.json``.

    Every bench emits (at least) one of these so CI can gate on and
    archive the headline number without scraping stdout.  ``metric``
    names the unit/direction (e.g. ``speedup_x``, ``p95_seconds``);
    ``threshold`` is the gate the bench itself asserts, recorded so the
    artifact is self-describing.  Repeat calls with the same
    ``bench_id`` accumulate under a ``results`` list in one file.
    Files land in ``$BENCH_JSON_DIR`` (default: current directory).
    Returns the path written.
    """
    directory = os.environ.get("BENCH_JSON_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{bench_id}.json")
    entry = {"name": name, "metric": metric, "value": value}
    if threshold is not None:
        entry["threshold"] = threshold
    entry.update(extra)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("bench") != bench_id or not isinstance(
            doc.get("results"), list
        ):
            doc = None
    except (OSError, ValueError):
        doc = None
    if doc is None:
        doc = {"bench": bench_id, "results": []}
    doc["results"] = [
        r for r in doc["results"] if r.get("name") != name
    ] + [entry]
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def emit_hot_operators(bench_id: str, run, top: int = 5) -> list:
    """Name the hot operators: drive ``run()`` (which returns the
    ``Runtime`` it used) once under the detail obs tier, print and
    ``emit()`` the ``top`` dataflow operators by seconds.  A separate
    pass, so per-operator timing never pollutes the gated numbers."""
    from repro import obs

    with obs.enabled_scope(detail=True):
        try:
            runtime = run()
        finally:
            obs.reset()
    hot = [
        {
            "operator": name,
            "seconds": round(stats["seconds"], 6),
            "calls": int(stats["calls"]),
            "in_tuples": int(stats["in_tuples"]),
            "out_tuples": int(stats["out_tuples"]),
        }
        for name, stats in sorted(
            runtime.operator_totals.items(), key=lambda kv: -kv[1]["seconds"]
        )[:top]
    ]
    report(
        f"{bench_id.upper()}: hot operators (detail tier, one pass)",
        [
            (h["operator"], f"{h['seconds'] * 1e3:.2f} ms", h["calls"],
             h["in_tuples"], h["out_tuples"])
            for h in hot
        ],
        ["operator", "seconds", "calls", "in", "out"],
    )
    emit(bench_id, "hot_operators", "top_by_seconds", hot)
    return hot


def pytest_addoption(parser):
    parser.addoption(
        "--bench-seed",
        type=int,
        default=None,
        help="workload seed for randomized benchmarks "
        "(default: $BENCH_SEED, then 0)",
    )


@pytest.fixture
def bench_seed(request):
    """The workload seed, with its provenance printed for replay."""
    option = request.config.getoption("--bench-seed")
    if option is not None:
        seed = option
    else:
        seed = int(os.environ.get("BENCH_SEED", "0"))
    print(f"\nreproduce with: --bench-seed {seed}")
    return seed
