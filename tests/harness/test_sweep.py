"""The sweep harness (``tools/sweep.py``) runs every table end to end.

One round on the first point of each table; nothing here reads the clock's
values, only the shape of the rows and the ``policy`` columns, which must be
what the granularity policy decides for the point.
"""

import pytest

from repro.config import ExecutionConfig
from repro.core.graph_builder import plan_granularity
from repro.harness.measure import make_spec
from tools import sweep


@pytest.mark.parametrize("name", list(sweep.TABLES))
def test_one_round_on_one_point_per_table(name, capsys):
    point = sweep.TABLES[name].points[0]
    (row,) = sweep.sweep(name, 1, points=[point])
    host, header, line = capsys.readouterr().out.splitlines()
    assert host.startswith(f"table={name} rounds=1 host_cores=")
    assert header.split() == " ".join(row).split() and line.strip()
    if name == "thread-floor":
        hidden, rows = point
        plan = plan_granularity(make_spec("lstm", hidden, hidden, 2), rows,
                                sweep.FLOOR_SEQ_LEN, False, 2, "threaded")
        assert row["policy"] == f"{plan.threads}t/{plan.tile}"
        assert set(row) >= {f"{t}t/{k} ms" for t, k in sweep.FLOOR_COLUMNS}
    if name == "hoist-floor":
        training, hidden, rows = point
        plan = plan_granularity(make_spec("lstm", hidden, hidden, 2), rows,
                                sweep.HOIST_SEQ_LEN, training, 2, "threaded",
                                ExecutionConfig(mbs=1))
        hoisted = "on" if all(plan.hoisted) else "off"
        assert row["policy"] == f"{hoisted} {plan.threads}t/{plan.tile}"
