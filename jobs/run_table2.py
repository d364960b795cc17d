"""spark-submit entrypoint — Table 2: the graph suite (lite analogs).

Usage: spark-submit jobs/run_table2.py   (or plain `python`)
"""
from repro.experiments.datasets import table2_rows
from repro.experiments.harness import format_table, get_session


def main() -> None:
    spark = get_session("table2")
    rows = table2_rows(spark)
    print(format_table(rows, "Table 2 (lite): graph suite"))


if __name__ == "__main__":
    main()
