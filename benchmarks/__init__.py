"""pytest-benchmark suites, one per paper table (``repro.harness.TABLES``)."""
from repro.harness import TABLES, write_table


def time_table(benchmark, name, **kwargs):
    """Time one computation of table ``name``, write it to results/ and return its rows."""
    rows = benchmark.pedantic(lambda: TABLES[name](**kwargs), rounds=1, iterations=1)
    write_table(name, rows)
    return rows
