"""Bench: regenerate paper artifact table2 into benchmarks/reports/."""

from conftest import bench_scale


def test_bench_table2(run_artifact):
    run_artifact("table2", scale=bench_scale(1.0))
