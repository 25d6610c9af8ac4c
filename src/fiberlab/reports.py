"""Structured verdicts for claim checks."""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Report:
    """Outcome of one verified claim: computed vs expected values."""

    claim: str
    params: dict
    computed: dict
    expected: dict
    verdict: str  # "pass" | "fail"
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "computed": self.computed,
            "expected": self.expected,
        }
        if include_timing:
            out["elapsedMs"] = round(self.elapsed_ms, 3)
        return out


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = (time.perf_counter() - self.start) * 1000.0
        return False


def make_report(
    claim: str,
    params: dict,
    computed: dict,
    expected: dict,
    ms: float,
    provenance: str | None = None,
) -> Report:
    """Pass iff computed matches expected on every key of expected.

    A key of expected missing from computed fails the check.
    """
    expected_out = dict(expected)
    if provenance is not None:
        expected_out["provenance"] = provenance
    ok = all(k in computed and computed[k] == v for k, v in expected.items())
    return Report(claim, params, computed, expected_out, "pass" if ok else "fail", ms)
