"""REACH002 pass: every def is used by non-test code, exempt or kept
(the package borrows ``repro``'s name, so the linter's ``KEPT`` applies)."""

from repro.api import serve
from repro.service.service import QueryService

__all__ = ["QueryService", "serve"]
