"""spark-submit entrypoint — Figure 7: query time, eps=0.6, mu sweep.

Usage: spark-submit jobs/run_fig7_query_mu.py [dataset ...]
"""
import sys

from repro.experiments.exp_query import run_sweep
from repro.experiments.harness import format_table, get_session


def main() -> None:
    spark = get_session("fig7")
    names = tuple(sys.argv[1:]) or ("orkut_lite", "brain_lite")
    rows = run_sweep(spark, names, sweep="mu")
    print(format_table(rows, "Figure 7: clustering time, eps=0.6, varying mu"))


if __name__ == "__main__":
    main()
