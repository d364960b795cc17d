"""Spark session lifecycle for one benchmark run.

Everything a run writes (Spark scratch, temp files, saved indices, run
records) goes under ``scanbench/out`` of the checkout; scratch files go
to a directory of the run's own, removed when it ends. The session is
pinned so that two runs of the same code see the same engine settings.
"""
from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Shuffle partitions for every run: a constant, so plans and task
#: counts do not depend on the machine.
SHUFFLE_PARTITIONS = 4
DRIVER_MEMORY = "2g"


def prepare_environment(root: Path, tmp: Path) -> None:
    """Environment the driver JVM and the Python workers inherit, with
    all scratch files under ``tmp``.

    Must run before the session starts: the JVM reads its launch
    arguments from ``PYSPARK_SUBMIT_ARGS`` once.
    """
    tmp.mkdir(parents=True)
    src = str(root / "src")
    # Workers import ``repro`` inside pandas UDFs; they only see it
    # through the inherited PYTHONPATH.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Both the launcher JVM and the driver JVM: temp files in the
    # checkout, and no hsperfdata file under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{os.cpu_count()}] "
        f"--driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 "
        "pyspark-shell"
    )


def start_session():
    """The pinned local session (imports pyspark lazily)."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("scanbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # Span job/stage counts are read back from the status store.
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.ui.retainedStages", "100000")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _jvm_proc():
    from pyspark import SparkContext

    gw = SparkContext._gateway
    return gw, getattr(gw, "proc", None)


def _children(pid: int) -> list[int]:
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            out += [int(x) for x in task.read_text().split()]
        except OSError:
            continue
    return out


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the Spark JVM."""
    _, proc = _jvm_proc()
    kb = _vm_hwm_kb("self") + (_vm_hwm_kb(proc.pid) if proc else 0)
    return kb / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process and the Spark JVM."""
    _, proc = _jvm_proc()
    total = 0.0
    for pid in ("self", proc.pid if proc else None):
        if pid is None:
            continue
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return total


def stop_session(spark, timeout: float = 60.0) -> None:
    """Stop Spark, the JVM and its Python workers; wait for each."""
    gw, proc = _jvm_proc()
    workers: list[int] = []
    if proc is not None:
        for child in _children(proc.pid):
            workers += [child, *_children(child)]
    spark.stop()
    gw.shutdown()
    if proc is not None:
        # The gateway JVM exits when its stdin pipe closes.
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + timeout
    for pid in workers:
        while Path(f"/proc/{pid}").exists():
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                break
            time.sleep(0.05)


def source_digest(root: Path) -> str:
    """sha256 over the program sources; identifies a checkout that is
    not a git repository."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment(root: Path, spark) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "spark": spark.version,
        "python": platform.python_version(),
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "driver_memory": DRIVER_MEMORY,
    }
