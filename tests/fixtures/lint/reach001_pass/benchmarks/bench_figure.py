from pkg.figure import table


def bench_table() -> None:
    assert table()
