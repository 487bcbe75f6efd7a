"""Bench: regenerate paper artifact fig3 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_fig3(run_artifact):
    run_artifact("fig3", scale=bench_scale(1.0))
