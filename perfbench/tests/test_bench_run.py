"""Failure counting, the result line and the tracer's wrappers.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import fiberlab  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fiberlab import CapError, MonomialIdeal, Ring, betti  # noqa: E402
from workloads import Op  # noqa: E402


def _raise_cap(_results):
    raise CapError("lcm lattice exceeds cap of 1 points")


def _check_raises(_result, _results):
    raise KeyError("missing")


def _xyz_table(_results):
    ring = Ring("R", ("x", "y", "z"))
    ideal = MonomialIdeal.from_exponents(ring, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return fiberlab.betti_table(ideal, 0, threads=1)


INJECTED = [
    Op("ok", lambda _r: 2 + 2, lambda result, _r: result == 4),
    Op("cap", _raise_cap, lambda result, _r: True),
    Op("wrong", lambda _r: 5, lambda result, _r: result == 4),
    Op("check-raises", lambda _r: 1, _check_raises),
    Op("after", lambda _r: 3, lambda result, _r: result == 3),
]


def test_round_counts_each_failure_and_goes_on():
    done = run.run_round(INJECTED)
    assert len(done.op_s) == len(INJECTED)
    assert [line.split(":")[0] for line in done.failed] == ["cap", "wrong", "check-raises"]
    assert done.wrong == 1


def test_gauge_units_follow_the_operation_not_the_core():
    slow = Op("slow", lambda _r: sum(range(2_000_000)), lambda result, _r: True)
    with run.Gauge().ticking() as gauge:
        done = run.run_round([slow, INJECTED[0]], gauge=gauge)
    assert len(done.op_gauge) == 2 and not done.failed
    # the long operation sampled the gauge during itself, and the handler time is not in it
    assert done.op_gauge[0] > 10 * done.op_gauge[1] > 0
    assert done.op_s[0] < done.wall_s


def test_main_reports_failures_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "injected", lambda seed, threads: INJECTED)
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 0.5)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    code = run.main(["--workload", "injected", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["attempted"] == 5 and result["failed"] == 3
    assert result["correct"] is False
    assert set(result["metrics"]) == {"setup_s", "wall_gauge", "op_p50_gauge", "peak_rss_mb"}


def test_main_exits_zero_without_failures(monkeypatch, tmp_path, capsys):
    ops = [INJECTED[0], INJECTED[-1]]
    monkeypatch.setitem(workloads.WORKLOADS, "injected", lambda seed, threads: ops)
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 0.5)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "injected", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {**result, "correct": True, "attempted": 2, "failed": 0}


def test_traced_run_reports_every_layer_and_restores_the_library(monkeypatch, tmp_path, capsys):
    originals = (fiberlab.betti_table, betti._closure, betti.rank_exact,
                 MonomialIdeal.__mul__)
    ops = [Op("table", _xyz_table, lambda table, _r: table.total(2) == 1)]
    monkeypatch.setitem(workloads.WORKLOADS, "injected", lambda seed, threads: ops)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    code = run.main(["--workload", "injected", "--seed", "1", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["attempted"] == 2  # one untraced and one traced round
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in spans.METRICS]
    assert metrics["betti.table.calls"] == 1 and metrics["betti.table.distinct"] == 1
    assert metrics["betti.closure.points"] == 7 and metrics["betti.walk.points"] == 7
    assert metrics["koszul.strand.calls"] == 0 and metrics["linalg.rref.calls"] == 0
    assert (fiberlab.betti_table, betti._closure, betti.rank_exact,
            MonomialIdeal.__mul__) == originals
    lines = (tmp_path / "spans-injected-seed1.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["span", "name", "start", "end", "parent", "op"]
    assert {line.split("\t")[1] for line in lines[1:]} >= {"op", "betti.table", "betti.closure"}
