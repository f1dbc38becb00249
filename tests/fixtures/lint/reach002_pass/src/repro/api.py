import ast
import io
import pickle

from repro import lazy


def serve() -> str:
    Walker().visit(ast.parse("x"))
    Saver(io.BytesIO()).dump(lazy.anything)
    return getattr(Handlers(), "by_string")()


class Handlers:
    def by_string(self) -> str:
        return "served"


class Walker(ast.NodeVisitor):
    def visit_Name(self, node: ast.Name) -> None:
        """ast calls this hook by name."""


class Saver(pickle.Pickler):
    def reducer_override(self, obj: object) -> object:
        """pickle calls this hook by name."""
        return NotImplemented


def table() -> list[int]:
    """Only a benchmark calls this."""
    return [1, 2]


def show() -> str:
    """Only an example calls this."""
    return "shown"
