"""Bench: regenerate paper artifact fig4 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_fig4(run_artifact):
    run_artifact("fig4", scale=bench_scale(1.0))
