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
    from repro.core import components
    from repro.datasets import load_spark
    from repro.harness import ALGOS
    from repro.core.engine import spark_context

    spark = spark or get_spark("run_dccs")
    g, _ = load_spark(spark, dataset)
    ctx = spark_context(g, d, s, mode=engine)
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
    args = sys.argv[1:]
    kw = {}
    names = ["dataset", "algo", "d", "s", "k", "engine"]
    for i, a in enumerate(args):
        kw[names[i]] = int(a) if names[i] in ("d", "s", "k") else a
    main(**kw)
