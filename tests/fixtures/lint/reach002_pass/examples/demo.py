from repro import QueryService
from repro.api import show

print(show(), QueryService().submit())
