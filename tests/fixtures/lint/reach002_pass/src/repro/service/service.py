class QueryService:
    def submit(self) -> str:
        return "answer"

    def slow_queries(self) -> list[str]:
        """Public API no example runs, kept by name."""
        return []
