"""REACH001 fail: ``pkg.orphan`` is imported by a test alone."""

from pkg.api import serve

__all__ = ["serve"]
