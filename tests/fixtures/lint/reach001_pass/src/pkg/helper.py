def name() -> str:
    return "served"
