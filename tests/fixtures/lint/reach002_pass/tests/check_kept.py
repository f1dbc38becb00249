from repro.core.plan_builder import create_query_plan
from repro.service.service import QueryService


def check_kept() -> None:
    create_query_plan()
    assert QueryService().slow_queries() == []
