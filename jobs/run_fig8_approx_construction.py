"""spark-submit entrypoint — Figure 8: approximate index construction.

Usage: spark-submit jobs/run_fig8_approx_construction.py [dataset ...]
"""
import sys

from repro.experiments.exp_approx_construction import run
from repro.experiments.harness import format_table, get_session


def main() -> None:
    spark = get_session("fig8")
    names = sys.argv[1:] or None
    rows = run(spark, names)
    print(format_table(rows, "Figure 8: approximate index construction time"))


if __name__ == "__main__":
    main()
