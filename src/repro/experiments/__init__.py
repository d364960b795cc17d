"""Experiment harnesses, one per evaluation table/figure (DESIGN.md §6).

Each ``run*`` function takes the shared SparkSession, executes one
experiment on the Table-2-lite dataset registry, and returns a list of
row dicts — the same rows ``jobs/run_*.py`` print as markdown and
``results/experiments.json`` records, one key per table/figure.
"""
