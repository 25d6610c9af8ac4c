"""Verdicts of claim reports."""

from fiberlab.reports import make_report


def test_missing_compared_key_fails():
    # both sides lacking a key once compared None == None and passed
    assert make_report("c", {}, {"a": 1}, {"a": 1}, 0.0).passed
    assert not make_report("c", {}, {}, {"a": None}, 0.0).passed
