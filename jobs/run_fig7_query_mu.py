"""spark-submit entrypoint — Figure 7: query time, eps=0.6, mu sweep.

Usage: spark-submit jobs/run_fig7_query_mu.py [dataset ...]

Prints the rows and records them as one run under ``fig7`` in
``results/experiments.json``, with the git SHA, core count and shuffle
partitions; runs of the same code accumulate there.
"""
import sys

from repro.experiments.exp_query import run_sweep
from repro.experiments.harness import format_table, get_session, record_run


def main() -> None:
    spark = get_session("fig7")
    names = tuple(sys.argv[1:]) or ("orkut_lite", "brain_lite")
    rows = run_sweep(spark, names, sweep="mu")
    print(format_table(rows, "Figure 7: clustering time, eps=0.6, varying mu"))
    entry = record_run(spark, "fig7", rows)
    print(f"recorded run {len(entry['runs'])} of {entry['git_sha']} under fig7")


if __name__ == "__main__":
    main()
