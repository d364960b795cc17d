"""Timing, recording and table-formatting utilities shared by all
experiments."""
from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any, Callable

from pyspark.sql import SparkSession


#: Shuffle partitions of every session. The lite graphs are a few MB, so
#: more partitions mostly add near-empty tasks: on a 4-vCPU machine the
#: orkut_lite build took 2.45–2.98 s at 4 and 3.7–4.65 s at 32. The
#: benchmark's own session (scanbench/session.py) pins the same value.
SHUFFLE_PARTITIONS = 4
#: The checkout this package runs from, and the file of recorded rows.
ROOT = Path(__file__).resolve().parents[3]
RESULTS = ROOT / "results" / "experiments.json"


def get_session(app: str = "repro") -> SparkSession:
    """The SparkSession of the jobs/ entrypoints and of the tests.

    Master and driver memory are launch arguments, read once when the
    JVM starts (``PYSPARK_SUBMIT_ARGS``); this sets the configs honoured
    after launch. Auto-broadcast is off: no plan here joins a table
    small enough to gain from it, and the builds ship their one CSR
    with ``sc.broadcast`` themselves.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """(result, wall seconds) of one call."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def git_sha() -> str:
    """HEAD's short SHA, marked "-dirty" when a tracked file outside
    ``results/`` differs from it; "unknown" outside a git checkout."""

    def git(*args: str) -> str:
        try:
            out = subprocess.run(("git", *args), cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return ""
        return out.stdout.strip() if out.returncode == 0 else ""

    sha = git("rev-parse", "--short", "HEAD")
    if not sha:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!results")
    return sha + ("-dirty" if dirty else "")


def record_run(spark: SparkSession, key: str, rows: list[dict], path: Path | None = None) -> dict:
    """Store ``rows`` as one run under ``key`` of the JSON file at
    ``path`` (default: RESULTS, read at the call), with the git SHA, the
    cores of ``spark`` and its shuffle partitions.

    Runs of the same code and settings accumulate in ``runs``; a run
    of other code or settings replaces them. Returns the stored entry.
    """
    entry = {
        "git_sha": git_sha(),
        "cores": spark.sparkContext.defaultParallelism,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
    }
    path = path or RESULTS
    data = json.loads(path.read_text()) if path.exists() else {}
    old = data.get(key)
    same = isinstance(old, dict) and all(old.get(f) == v for f, v in entry.items())
    entry["runs"] = (old["runs"] if same else []) + [rows]
    data[key] = entry
    path.write_text(json.dumps(data, indent=1) + "\n")
    return entry


def format_table(rows: list[dict], title: str = "") -> str:
    """Markdown table of row dicts (union of keys, in order), under an
    optional title line."""
    head = [title, ""] if title else []
    if not rows:
        return "\n".join(head + ["(no rows)"])
    cols = list(dict.fromkeys(c for r in rows for c in r))
    def fmt(x):
        if isinstance(x, float):
            return f"{x:.4g}"
        return "" if x is None else str(x)
    out = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(fmt(r.get(c)) for c in cols) + " |")
    return "\n".join(head + out)
