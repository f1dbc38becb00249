def unused() -> str:
    return "only a test calls this"
