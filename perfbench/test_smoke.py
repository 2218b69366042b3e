"""Smoke test of the benchmark at a tiny scale (a few objects, bags of 4).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _truncate(name: str):
    def corrupt(out: Path) -> None:
        path = out / name
        path.write_bytes(path.read_bytes()[:-10])

    return corrupt


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(workload, trace, tmp_path):
    report, result = bench.run(workload, 1, 0.01, trace, scale=bench.TINY, work=tmp_path)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_share"] == 0.0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / "traces" / f"{workload}-seed1.jsonl").stat().st_size > 0


@pytest.mark.parametrize(
    "workload,victim",
    [("eval", "model.net"), ("eval", "test.bags"), ("train", "train.bags")],
)
def test_corrupt_input_raises_failed_share(workload, victim, tmp_path):
    report, result = bench.run(
        workload, 1, 0.01, False, scale=bench.TINY, work=tmp_path, corrupt=_truncate(victim)
    )
    assert not result["correct"]
    assert result["failed"] >= 1
    assert 0.0 < report["failed_share"] <= 1.0
    assert set(result["metrics"]) == set(_declared("end_to_end"))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_failed_setup_is_counted_not_raised(workload, tmp_path):
    work = tmp_path / "not-a-directory"
    work.write_text("")
    report, result = bench.run(workload, 1, 0.01, False, scale=bench.TINY, work=work)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    assert report["passes"] == 0 and report["failed_share"] == 1.0
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb"}


def test_refuses_when_numpy_was_imported_before_the_pin():
    code = (
        "import numpy, runpy, sys; sys.argv = ['run.py', '--workload', 'gen']; "
        f"runpy.run_path({str(HERE / 'run.py')!r}, run_name='__main__')"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "gen", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(SPEC["command"] + args, cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
