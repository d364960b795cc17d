"""Timing and table-formatting utilities shared by all experiments."""
from __future__ import annotations

import time
from typing import Any, Callable

from pyspark.sql import SparkSession


#: Shuffle partitions of every session. The lite graphs are a few MB, so
#: more partitions mostly add near-empty tasks: on a 4-vCPU machine the
#: orkut_lite build took 2.45–2.98 s at 4 and 3.7–4.65 s at 32. The
#: benchmark's own session (scanbench/session.py) pins the same value.
SHUFFLE_PARTITIONS = 4


def get_session(app: str = "repro") -> SparkSession:
    """The SparkSession of the jobs/ entrypoints and of the tests.

    Master and driver memory are launch arguments, read once when the
    JVM starts (``PYSPARK_SUBMIT_ARGS``); this sets the configs honoured
    after launch. Auto-broadcast is off: the code hints the small
    per-vertex tables it broadcasts itself.
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
