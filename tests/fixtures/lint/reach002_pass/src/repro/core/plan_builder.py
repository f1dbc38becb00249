def create_query_plan() -> None:
    """A kept oracle module: nothing but tests reaches it."""
