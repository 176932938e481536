"""Tests for the runtime kernel bench collection and JSON emission."""

import json

import numpy as np
import pytest

from repro.runtime.kernel_bench import (
    collect_bench_runtime,
    write_bench_json,
)
from repro.simd.counters import OpCounter, counter_to_dict

pytestmark = pytest.mark.fast


@pytest.fixture(scope="module")
def report():
    return collect_bench_runtime(nx=8, stencil="27pt", bsize=4,
                                 n_workers=2, repeats=1, pcg_iters=2)


def test_counter_to_dict_roundtrip():
    c = OpCounter(bsize=4, vload=3, vfma=2, bytes_values=96,
                  bytes_index=12, bytes_vector=160, bytes_gathered=0)
    d = counter_to_dict(c)
    assert d["bsize"] == 4
    assert d["ops"]["vload"] == 3
    assert d["bytes"]["values"] == 96
    assert d["bytes"]["total"] == 96 + 12 + 160
    assert d["flops"] == c.flops()


def test_report_covers_required_kernels(report):
    for name in ("sptrsv_dbsr_lower", "sptrsv_dbsr_upper",
                 "spmv_dbsr", "spmv_csr", "symgs_dbsr"):
        entry = report["kernels"][name]
        assert entry["seconds"] > 0
        counts = entry["counts"]
        assert counts["bytes"]["total"] > 0
        assert set(counts["bytes"]) == {"values", "index", "vector",
                                        "gathered", "total"}
        assert counts["ops"]["vfma"] + counts["ops"]["sflop"] > 0


def test_report_sptrsv_has_parallel_speedup_fields(report):
    entry = report["kernels"]["sptrsv_dbsr_lower"]
    assert entry["seconds_parallel"] > 0
    assert entry["speedup_vs_sequential"] == pytest.approx(
        entry["seconds"] / entry["seconds_parallel"])


def test_report_single_pool_and_phases(report):
    assert report["session"]["pools_created"] == 1
    phases = report["phases"]
    for name in ("reorder", "convert", "sweep", "spmv", "symgs",
                 "vcycle"):
        assert phases[name]["seconds"] > 0, name
        assert phases[name]["calls"] >= 1, name
    # The sweep phase saw the parallel sweeps' traffic.
    assert phases["sweep"]["counter"]["bytes"]["total"] > 0
    assert phases["symgs"]["counter"]["bytes"]["total"] > 0


def test_report_dbsr_is_gather_free(report):
    for name in ("sptrsv_dbsr_lower", "sptrsv_dbsr_upper",
                 "spmv_dbsr", "symgs_dbsr"):
        counts = report["kernels"][name]["counts"]
        assert counts["ops"]["vgather"] == 0, name
        assert counts["bytes"]["gathered"] == 0, name
    assert report["kernels"]["spmv_csr"]["counts"]["bytes"][
        "gathered"] > 0


def test_write_bench_json(report, tmp_path):
    path = str(tmp_path / "BENCH_runtime.json")
    assert write_bench_json(report, path) == path
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded["schema"] == "dbsr-repro/bench-runtime/v1"
    assert loaded["config"]["nx"] == 8
    assert loaded["kernels"].keys() == report["kernels"].keys()


def test_f32_report_halves_value_bytes():
    r64 = collect_bench_runtime(nx=4, stencil="7pt", bsize=2,
                                n_workers=2, repeats=1, pcg_iters=1)
    r32 = collect_bench_runtime(nx=4, stencil="7pt", bsize=2,
                                n_workers=2, repeats=1, pcg_iters=1,
                                dtype="f32")
    b64 = r64["kernels"]["sptrsv_dbsr_lower"]["counts"]["bytes"]
    b32 = r32["kernels"]["sptrsv_dbsr_lower"]["counts"]["bytes"]
    assert b32["values"] * 2 == b64["values"]
    assert r32["config"]["dtype"] == "float32"
