"""Compute paper tables and save each to ``results/<name>.{json,md}``.

    spark-submit jobs/run_table.py <name> [<name> ...]   # or: python jobs/run_table.py ...

Each ``<name>`` is a key of ``repro.harness.TABLES``, e.g. ``fig29_mimag``;
naming all nine rebuilds every table in one process. Every name is checked
before any table is computed. One Spark session is started, and only if a
named table's function requires one. ``tests/test_shapes.py`` checks the
paper's shape claims on the saved rows.
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


def main(*names: str):
    """Compute and save each named table; returns ``{name: rows}``."""
    from repro.harness import TABLES, write_table

    for name in names:
        if name not in TABLES:
            raise SystemExit(f"unknown table {name!r}; valid names: {', '.join(TABLES)}")
    spark = get_spark("run_table") if any(needs_spark(TABLES[n]) for n in names) else None
    tables = {}
    for name in names:
        fn = TABLES[name]
        tables[name] = fn(spark=spark) if needs_spark(fn) else fn()
        write_table(name, tables[name])
    return tables


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit("usage: run_table.py <name> [<name> ...]")
    main(*sys.argv[1:])
