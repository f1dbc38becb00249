def serve() -> str:
    return "served"
