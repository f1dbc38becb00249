from pkg.api import Engine, countdown, only_tested


def check_api() -> None:
    assert only_tested() and countdown(3) == 0
    Engine().tune()
