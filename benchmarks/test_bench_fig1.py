"""Bench: regenerate paper artifact fig1 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_fig1(run_artifact):
    run_artifact("fig1", scale=bench_scale(1.0))
