"""Bench: regenerate paper artifact fig11 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_fig11(run_artifact):
    run_artifact("fig11", scale=bench_scale(0.5))
