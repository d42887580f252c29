"""Generic DCCS entrypoint: run one algorithm on one dataset.

    spark-submit jobs/run_dccs.py <dataset> <algo> [d] [s] [k] [engine]

Prints the top-k diversified d-CCs, their layer sets, cover size, and the
number of connected components of each returned core. Spark runs the
vertex-deletion preprocessing; the components come from a union-find over
the collected pruned graph on the driver.
"""
from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/jobs")
from _common import get_spark  # noqa: E402


def main(
    spark=None,
    dataset: str = "ppi-lite",
    algo: str = "BU-DCCS",
    d: int = 4,
    s: int = 3,
    k: int = 10,
    engine: str = "hybrid",
):
    """Run ``algo`` on ``dataset`` and print its cores; returns the ``DCCSResult``.

    Raises ``ValueError`` before any session or data is touched when the
    engine, algorithm or dataset is unknown, or when ``d < 0``, ``s`` lies
    outside ``1..l`` or ``k < 1``.
    """
    if engine != "hybrid":
        raise ValueError(f"unknown engine {engine!r}: this job runs 'hybrid' only")
    from repro.core import components
    from repro.core.engine import check_query, spark_context
    from repro.datasets import SPECS, load_spark
    from repro.harness import ALGOS

    if algo not in ALGOS:
        raise ValueError(f"unknown algo {algo!r}: use one of {', '.join(ALGOS)}")
    if dataset not in SPECS:
        raise ValueError(f"unknown dataset {dataset!r}: use one of {', '.join(SPECS)}")
    check_query(SPECS[dataset].l, d, s, k)
    spark = spark or get_spark("run_dccs")
    g, _ = load_spark(spark, dataset)
    ctx = spark_context(g, d, s)
    res = ALGOS[algo](ctx, k)
    print(
        f"{algo} on {dataset} (d={d}, s={s}, k={k}, engine={engine}): "
        f"|Cov(R)|={res.cov_size} in {res.seconds:.2f}s "
        f"({res.n_dcc_calls} dCC calls)"
    )
    for L, C in res.entries:
        n_comp = len(set(components.connected_components(ctx.graph, C, L).values()))
        print(f"  L={L}: |C|={len(C)} components={n_comp}")
    return res


if __name__ == "__main__":
    names = ["dataset", "algo", "d", "s", "k", "engine"]
    if len(sys.argv) > len(names) + 1:
        print("usage: run_dccs.py <dataset> <algo> [d] [s] [k] [engine]", file=sys.stderr)
        sys.exit(2)
    main(**{n: int(a) if n in ("d", "s", "k") else a for n, a in zip(names, sys.argv[1:])})
