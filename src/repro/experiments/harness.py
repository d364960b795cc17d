"""Timing and table-formatting utilities shared by all experiments."""
from __future__ import annotations

import time
from typing import Any, Callable

from pyspark.sql import SparkSession


def get_session(app: str = "repro") -> SparkSession:
    """SparkSession for jobs/ entrypoints (tests use the conftest
    fixture instead). Mirrors the fixture's post-launch configs."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """(result, wall seconds) of one call."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


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
