"""spark-submit entrypoint — query a saved SCAN index.

Usage: spark-submit jobs/query_clusters.py <index_dir> <mu> <eps>

Prints the size of each cluster, largest first. Telling hubs from
outliers needs the graph, which the saved index does not hold, so this
job reports the clustering only. The load, the query and the counts
all run on the driver, with no Spark job.
"""
import sys

from repro.core.index import SCANIndex
from repro.core.query import query_clusters
from repro.experiments.harness import get_session


def main() -> None:
    path, mu, eps = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    spark = get_session("query_clusters")
    index = SCANIndex.load(spark, path)
    res = query_clusters(index, mu, eps)
    sizes = res.assignments_pdf.groupby("cluster").size().rename("size").reset_index()
    print(f"clusters for mu={mu}, eps={eps}:")
    print(sizes.sort_values("size", ascending=False).head(50).to_string(index=False))


if __name__ == "__main__":
    main()
