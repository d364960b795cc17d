"""spark-submit entrypoint — Figure 6: query time, mu=5, eps sweep.

Usage: spark-submit jobs/run_fig6_query_eps.py [dataset ...]
"""
import sys

from repro.experiments.exp_query import run_sweep
from repro.experiments.harness import format_table, get_session


def main() -> None:
    spark = get_session("fig6")
    names = tuple(sys.argv[1:]) or ("orkut_lite", "brain_lite")
    rows = run_sweep(spark, names, sweep="eps")
    print(format_table(rows, "Figure 6: clustering time, mu=5, varying eps"))


if __name__ == "__main__":
    main()
