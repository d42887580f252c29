"""The Spark session of the spark-submit entrypoints in ``jobs/``.

``run_table.py`` computes paper tables and ``run_dccs.py`` runs one
query; each starts a session here only when it needs Spark.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Session for standalone job runs (spark-submit provides its own conf)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # Arrow hands a frame under this size to Spark as a local relation,
        # whose rows every later query plan over the graph carries: on
        # stack-lite (720 K edges, 14 MB) that cost 0.3 s per query. A graph
        # of one frame partition (50 000 edges, about 1 MB) stays local.
        .config("spark.sql.execution.arrow.localRelationThreshold", "1MB")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark

