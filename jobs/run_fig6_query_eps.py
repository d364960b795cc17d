"""spark-submit entrypoint — Figure 6: query time, mu=5, eps sweep.

Usage: spark-submit jobs/run_fig6_query_eps.py [dataset ...]

Prints the rows and records them as one run under ``fig6`` in
``results/experiments.json``, with the git SHA, core count and shuffle
partitions; runs of the same code accumulate there.
"""
import sys

from repro.experiments.exp_query import run_sweep
from repro.experiments.harness import format_table, get_session, record_run


def main() -> None:
    spark = get_session("fig6")
    names = tuple(sys.argv[1:]) or ("orkut_lite", "brain_lite")
    rows = run_sweep(spark, names, sweep="eps")
    print(format_table(rows, "Figure 6: clustering time, mu=5, varying eps"))
    entry = record_run(spark, "fig6", rows)
    print(f"recorded run {len(entry['runs'])} of {entry['git_sha']} under fig6")


if __name__ == "__main__":
    main()
