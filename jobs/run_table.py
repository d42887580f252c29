"""Compute one paper table and save it to ``results/<name>.{json,md}``.

    spark-submit jobs/run_table.py <name>      # or: python jobs/run_table.py <name>

``<name>`` is a key of ``repro.harness.TABLES``, e.g. ``fig29_mimag``. A
Spark session is started only for a table whose function requires one.
"""
from __future__ import annotations

import inspect
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/jobs")
from _common import get_spark  # noqa: E402


def needs_spark(fn) -> bool:
    """Whether ``fn`` has a ``spark`` parameter without a default."""
    param = inspect.signature(fn).parameters.get("spark")
    return param is not None and param.default is inspect.Parameter.empty


def main(name: str):
    from repro.harness import TABLES, write_table

    if name not in TABLES:
        raise SystemExit(f"unknown table {name!r}; valid names: {', '.join(TABLES)}")
    fn = TABLES[name]
    rows = fn(spark=get_spark(name)) if needs_spark(fn) else fn()
    write_table(name, rows)
    return rows


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: run_table.py <name>")
    main(sys.argv[1])
