"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {"offset-unit": (11, 21), "offset-warped": (11, 15),
        "reconstruct": (11, 21), "cli": (11, 15)}

EXACT_PREFIXES = ("curve.points.order",)


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(wl, "SIZES", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def check_units(result: dict, expected: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, workload):
    untraced = bench(capsys, workload, 0)
    check_units(untraced, run.END_TO_END)
    assert untraced["correct"]
    traced = bench(capsys, workload, 1)
    check_units(traced, run.PER_LAYER)
    assert traced["correct"]


def test_exact_counts_repeat_for_the_same_seed(capsys):
    for workload in ("offset-warped", "reconstruct"):
        first = bench(capsys, workload, 1)["metrics"]
        second = bench(capsys, workload, 1)["metrics"]
        exact = [k for k in first if k.endswith(".calls") or k.startswith(EXACT_PREFIXES)]
        assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
        assert first["numerics.integrate.calls"]["value"] > 0
        assert first["curve.points.order1"]["value"] > 0


def _with_extra_op(monkeypatch, error: type[Exception]):
    build = wl.build_cycle

    def build_with_failure(workload, seed, cycle, ctx):
        def fail():
            raise error("injected")

        return build(workload, seed, cycle, ctx) + [wl.Op("injected", 1, fail)]

    monkeypatch.setattr(wl, "build_cycle", build_with_failure)


def test_injected_failure_lowers_passed_frac(capsys, monkeypatch):
    clean = bench(capsys, "reconstruct", 0)
    _with_extra_op(monkeypatch, RuntimeError)
    failing = bench(capsys, "reconstruct", 0)
    assert clean["failed"] == 0 and failing["failed"] >= 1
    assert failing["metrics"]["passed_frac"]["value"] < clean["metrics"]["passed_frac"]["value"]
    assert failing["correct"]


def test_injected_wrong_output_clears_correct(capsys, monkeypatch):
    _with_extra_op(monkeypatch, wl.Incorrect)
    result = bench(capsys, "reconstruct", 0)
    assert result["failed"] >= 1
    assert not result["correct"]


def test_host_speed_samples_while_entered_and_then_stops():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            hostspeed.kernel()
    assert len(host.kernel_s) >= 2
    assert 0.05 < host.speed() < 5.0
    assert host.speed(host.mark()) == 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
