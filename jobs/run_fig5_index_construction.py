"""spark-submit entrypoint — Figure 5: exact index construction times.

Usage: spark-submit jobs/run_fig5_index_construction.py [dataset ...]

Prints the rows and records them as one run under ``fig5`` in
``results/experiments.json``, with the git SHA, core count and shuffle
partitions; runs of the same code accumulate there.
"""
import sys

from repro.experiments.exp_index_construction import run
from repro.experiments.harness import format_table, get_session, record_run


def main() -> None:
    spark = get_session("fig5")
    names = sys.argv[1:] or None
    rows = run(spark, names)
    print(format_table(rows, "Figure 5: exact index construction time"))
    entry = record_run(spark, "fig5", rows)
    print(f"recorded run {len(entry['runs'])} of {entry['git_sha']} under fig5")


if __name__ == "__main__":
    main()
