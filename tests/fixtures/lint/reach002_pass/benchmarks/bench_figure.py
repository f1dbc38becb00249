from repro.api import table


def bench_table() -> None:
    assert table()
