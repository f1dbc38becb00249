def __getattr__(name: str) -> int:
    return len(name)
