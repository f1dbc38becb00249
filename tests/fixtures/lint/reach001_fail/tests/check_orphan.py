from pkg.orphan import unused


def check_unused() -> None:
    assert unused()
