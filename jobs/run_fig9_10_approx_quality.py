"""spark-submit entrypoint — Figures 9 & 10: approximate quality.

One run produces both figures' numbers: best modularity over the Σ grid
(Figure 9) and ARI against the exact clustering at the exact-optimal
parameters (Figure 10), per scheme and sample count.

Usage: spark-submit jobs/run_fig9_10_approx_quality.py [dataset ...]
"""
import sys

from repro.experiments.exp_approx_quality import run
from repro.experiments.harness import format_table, get_session


def main() -> None:
    spark = get_session("fig9_10")
    names = tuple(sys.argv[1:]) or None
    rows = run(spark, names) if names else run(spark)
    print(format_table(rows, "Figures 9/10: approximate clustering quality"))


if __name__ == "__main__":
    main()
