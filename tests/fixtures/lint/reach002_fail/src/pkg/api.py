def serve() -> str:
    return Engine().run()


def only_tested() -> str:
    return "only a test calls this"


def countdown(n: int) -> int:
    # A recursive call is no use from outside.
    return 0 if n == 0 else countdown(n - 1)


class Engine:
    def run(self) -> str:
        return "served"

    def tune(self) -> None:
        """Only a test calls this."""
