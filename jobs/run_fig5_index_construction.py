"""spark-submit entrypoint — Figure 5: exact index construction times.

Usage: spark-submit jobs/run_fig5_index_construction.py [dataset ...]
"""
import sys

from repro.experiments.exp_index_construction import run
from repro.experiments.harness import format_table, get_session


def main() -> None:
    spark = get_session("fig5")
    names = sys.argv[1:] or None
    rows = run(spark, names)
    print(format_table(rows, "Figure 5: exact index construction time"))


if __name__ == "__main__":
    main()
