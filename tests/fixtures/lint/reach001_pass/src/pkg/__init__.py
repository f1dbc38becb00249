"""REACH001 pass: every module is reached from an entry point."""

from pkg.api import serve

__all__ = ["serve"]
