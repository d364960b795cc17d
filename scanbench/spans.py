"""Spans around calls into the program's layers, with Spark job counts.

A span records its name, start, end, parent, workload and run id. Each
span runs under its own Spark job group, so the jobs, stages and tasks
it launched are read back from the status tracker when it ends. Spans
stay in memory until the run writes them out.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    span_id: str
    parent: str | None
    workload: str
    run_id: str
    start: float
    end: float = 0.0
    jobs: int = 0
    stages: int = 0
    tasks: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one run; nested spans name their parent."""

    def __init__(self, spark, workload: str, run_id: str) -> None:
        self.sc = spark.sparkContext
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(
            name=name,
            span_id=f"{self.run_id}/{len(self.spans)}",
            parent=parent.span_id if parent else None,
            workload=self.workload,
            run_id=self.run_id,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setJobGroup(s.span_id, name)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.sc.setJobGroup(parent.span_id, parent.name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            self._count(s)

    def _count(self, s: Span) -> None:
        """Jobs, stages and tasks launched under the span's group,
        plus those of its already-closed children."""
        # Job events reach the status store through the asynchronous
        # listener bus; drain it so the counts are complete.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        stages: set[int] = set()
        job_ids = list(st.getJobIdsForGroup(s.span_id))
        for j in job_ids:
            info = st.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        run = [st.getStageInfo(x) for x in stages]
        run = [x for x in run if x is not None and x.numCompletedTasks > 0]
        s.jobs = len(job_ids)
        s.stages = len(run)
        s.tasks = sum(x.numCompletedTasks for x in run)
        for child in self.spans:
            if child.parent == s.span_id:
                s.jobs += child.jobs
                s.stages += child.stages
                s.tasks += child.tasks

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def force(df) -> None:
    """Evaluate every column of ``df``. A ``noop`` write reads all
    columns, where ``count()`` lets the optimizer prune unused ones."""
    df.write.format("noop").mode("overwrite").save()
