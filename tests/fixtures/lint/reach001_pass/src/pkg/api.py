def serve() -> str:
    from . import helper  # a lazy, relative import is an edge too

    return helper.name()
