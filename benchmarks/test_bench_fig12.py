"""Bench: regenerate paper artifact fig12 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_fig12(run_artifact):
    run_artifact("fig12", scale=bench_scale(0.5))
