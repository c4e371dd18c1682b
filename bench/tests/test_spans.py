import pytest

from benchlib import spans


def _span(sid, name, start, end, parent):
    return {"id": sid, "name": name, "workload": "w", "start": start,
            "end": end, "parent": parent}


#: root [0,10] > a [1,4] > leaf [2,3];  root > b [3,6] overlapping a.
TREE = [
    _span(0, "replay.w", 0.0, 10.0, None),
    _span(1, "apps.map", 1.0, 4.0, 0),
    _span(2, "spill.run_write", 2.0, 3.0, 1),
    _span(3, "containers.absorb", 3.0, 6.0, 0),
]


def test_self_time_subtracts_the_union_of_children():
    own = spans.self_times(TREE)
    assert own[0] == pytest.approx(5.0)   # children cover [1,6] once
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)


def test_children_are_clipped_to_their_parent():
    tree = [_span(0, "r", 0.0, 4.0, None), _span(1, "x.y", 3.0, 9.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_layer_totals_leave_the_root_out():
    by_layer = spans.self_time_by_layer(TREE)
    assert by_layer == pytest.approx(
        {"apps": 2.0, "spill": 1.0, "containers": 3.0})
    assert spans.self_time_by_name(TREE)["replay.w"] == pytest.approx(5.0)


def test_root_coverage_is_what_children_cover():
    assert spans.root_coverage(TREE) == pytest.approx(0.5)
    assert spans.root_coverage([]) == 0.0


def test_tracer_nests_and_wraps():
    tracer = spans.Tracer("w")
    with tracer.span("outer"):
        with tracer.span("io.load"):
            pass
        doubled = tracer.wrap("core.split", lambda x: 2 * x)(21)
    assert doubled == 42
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("outer", None), ("io.load", 0), ("core.split", 0)]
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    assert all(s["workload"] == "w" for s in tracer.spans)
