"""REACH002 fail: defs of a reached module that only tests use."""

from pkg.api import serve

__all__ = ["serve"]
