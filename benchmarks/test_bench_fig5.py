"""Bench: regenerate paper artifact fig5 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_fig5(run_artifact):
    run_artifact("fig5", scale=bench_scale(1.0))
