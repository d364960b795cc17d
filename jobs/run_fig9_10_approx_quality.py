"""spark-submit entrypoint — Figures 9 & 10: approximate quality.

One run produces both figures' numbers: best modularity over the Σ grid
(Figure 9) and ARI against the exact clustering at the exact-optimal
parameters (Figure 10), per scheme and sample count.

Usage: spark-submit jobs/run_fig9_10_approx_quality.py [dataset ...]

Prints the rows and records them as one run under ``fig9_10`` in
``results/experiments.json``, with the git SHA, core count and shuffle
partitions; runs of the same code accumulate there.
"""
import sys

from repro.experiments.exp_approx_quality import run
from repro.experiments.harness import format_table, get_session, record_run


def main() -> None:
    spark = get_session("fig9_10")
    names = tuple(sys.argv[1:]) or None
    rows = run(spark, names) if names else run(spark)
    print(format_table(rows, "Figures 9/10: approximate clustering quality"))
    entry = record_run(spark, "fig9_10", rows)
    print(f"recorded run {len(entry['runs'])} of {entry['git_sha']} under fig9_10")


if __name__ == "__main__":
    main()
