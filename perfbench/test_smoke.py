"""Smoke test of the benchmark harness, on seed 0 with one-second runs.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is emitted with its
unit, that a checkout without sources is refused, that only the
documented wrong compare verdict leaves a run correct, and that the
Kneser-Milnor reference behind the compare-sums checks gives the known
verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    return result


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_declared_and_nonzero(workload):
    result = _result(workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_declared():
    result = _result("sweep", 1)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["families.verify_family.calls"]["value"] > 0


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_only_the_documented_wrong_verdict_is_tolerated():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from run import Tally
    from workloads import Op

    def op(answer):
        return Op(lambda: (0.001, answer, None),
                  lambda text, value: ([] if text == "distinct"
                                       else [f"got {text}"]),
                  1, tolerated="equal")

    tally = Tally()
    for answer in ("distinct", "equal", "indeterminate"):
        tally.run(op(answer))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.unexpected == ["got indeterminate"]


def test_kneser_milnor_reference():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import kneser_milnor

    l31, l32, l51, l52 = ("L", 3, 1), ("L", 3, 2), ("L", 5, 1), ("L", 5, 2)
    partial = ("S2", (2, 3, 7))
    # L(3,1) is chiral: mirroring one of two copies changes the manifold.
    assert kneser_milnor([l31, l31], [l31, l32]) == "distinct"
    assert kneser_milnor([l31, l51], [l32, ("L", 5, 4)]) == "equal"
    # L(5,2) is amphichiral (2^2 = -1 mod 5).
    assert kneser_milnor([l31, l52], [l31, ("L", 5, 3)]) == "equal"
    assert kneser_milnor([l31, l51], [l31, l52]) == "distinct"
    assert kneser_milnor([partial, l51], [partial, l51]) == "indeterminate"
    assert kneser_milnor([partial, l51],
                         [("S2", (2, 3, 11)), l51]) == "distinct"
