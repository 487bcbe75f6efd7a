"""Bench: regenerate paper artifact fig2 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_fig2(run_artifact):
    run_artifact("fig2", scale=bench_scale(1.0))
