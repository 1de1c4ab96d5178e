"""The benchmark's own tests.

Run from the root of a checkout (the name keeps them out of the
repository's default test collection, which they would slow down)::

    python3 -m pytest perfbench/selftest.py -q

* a smoke-sized pass of every workload, untraced and traced, asserts
  that every metric ``BENCHMARK.json`` names is emitted with its unit,
  that the correctness gates ran and that no process outlives the run;
* a synthetic span tree checks the self-time arithmetic;
* canned ``/metrics`` scrapes check the delta parser and the served
  workload's per-layer attribution;
* the command fails, printing no result, without the program beside it.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import served  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SECONDS = {"keyed_ingest": 3, "long_stream": 3, "served_window": 12}


PR_SET_CHILD_SUBREAPER = 36
# As the child subreaper, this process inherits whatever a finished run
# left behind, so leftover_processes() can see it.
ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def leftover_processes():
    """The processes re-parented to this one: each outlived its parent.
    One that has ended since is still listed (as a zombie, until this
    reaps it), so the check does not depend on how fast it exits."""
    me, left = str(os.getpid()), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = stat[stat.rfind(")") + 2:].split()[1]
        if ppid == me:
            left.append(stat)
            try:
                os.waitpid(int(entry), os.WNOHANG)
            except ChildProcessError:
                pass
    return left


def run_bench(workload: str, trace: int, cwd: Path = ROOT, smoke: bool = True):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", str(SMOKE_SECONDS[workload]), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    # Files, not pipes: reading a pipe to its end would wait for every
    # process that inherited it, and so hide one that outlives the run.
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        code = subprocess.run(argv, cwd=cwd, stdout=out, stderr=err, timeout=300).returncode
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(argv, code, out.read().decode(), err.read().decode())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_pass_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert not leftover_processes()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert any(line.startswith("gate:") and "ok" in line for line in lines), proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("keyed_ingest", 0, cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_covered_length_merges_and_clips():
    assert measure.covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert measure.covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert measure.covered_length([], 0.0, 10.0) == 0.0


def test_self_time_subtracts_what_children_cover():
    S = measure.Span
    spans = [
        S("engine", 0.0, 10.0, None, 0),
        S("core", 1.0, 3.0, 0, 0),
        S("geometry", 2.0, 2.5, 1, 0),
        S("core", 3.5, 4.0, 0, 0),
        S("core", 6.0, 7.0, 0, 0),
        S("queries.diameter", 11.0, 12.0, None, 1),
        S("core", 11.2, 11.6, 5, 1),
    ]
    selfs = measure.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 0.5 - 1.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(0.6)
    under = measure.layer_totals(spans, under="engine")
    assert under["core"].count == 3
    assert under["core"].inclusive == pytest.approx(3.5)
    assert under["core"].self_time == pytest.approx(3.0)
    assert under["geometry"].self_time == pytest.approx(0.5)
    # The self times of the layers under engine add up to its duration.
    total = sum(t.self_time for t in under.values())
    assert total == pytest.approx(under["engine"].inclusive)
    assert measure.layer_totals(spans)["core"].count == 4
    assert "queries.diameter" not in under


def test_tail_needs_ten_samples_beyond_it():
    ok = measure.tail_summary([float(i) for i in range(200)], 0.95)
    assert (ok.n, ok.beyond, ok.tail, ok.median) == (200, 10, 189.0, 99.5)
    with pytest.raises(measure.ThinTailError):
        measure.tail_summary([float(i) for i in range(199)], 0.95)


BEFORE = """\
# HELP repro_shard_collect_seconds Parent-side time blocked collecting one reply.
# TYPE repro_shard_collect_seconds histogram
repro_shard_collect_seconds_bucket{shard="0",le="+Inf"} 10
repro_shard_collect_seconds_sum{shard="0"} 1.0
repro_shard_collect_seconds_count{shard="0"} 10
repro_shard_collect_seconds_sum{shard="1"} 0.5
repro_shard_collect_seconds_count{shard="1"} 10
repro_shard_partition_seconds_sum 0.1
repro_shard_send_seconds_sum{shard="0"} 0.2
repro_ingest_batch_seconds_sum{tier="engine"} 1.2
repro_ingest_batch_seconds_sum{tier="shard"} 3.0
repro_transport_bytes_total{dir="send"} 1000
repro_transport_bytes_total{dir="recv"} 500
repro_window_bucket_seals_total 7
repro_serve_queue_wait_seconds_sum 0.4
repro_serve_queue_wait_seconds_count 10
repro_serve_coalesced_records_sum 10000
repro_serve_coalesced_records_count 10
repro_gateway_request_seconds_sum{verb="ingest"} 2.0
repro_gateway_request_seconds_count{verb="ingest"} 10
repro_gateway_request_seconds_sum{verb="hull"} 0.1
repro_gateway_request_seconds_count{verb="hull"} 10
repro_gateway_ingest_bytes_total{tenant="bench"} 40000
repro_shard_streams{shard="0"} 30
repro_shard_streams{shard="1"} 30
"""

AFTER = """\
repro_shard_collect_seconds_sum{shard="0"} 3.0
repro_shard_collect_seconds_count{shard="0"} 30
repro_shard_collect_seconds_sum{shard="1"} 1.5
repro_shard_collect_seconds_count{shard="1"} 30
repro_shard_partition_seconds_sum 0.3
repro_shard_send_seconds_sum{shard="0"} 0.6
repro_shard_send_seconds_sum{shard="1"} 0.2
repro_ingest_batch_seconds_sum{tier="engine"} 5.2
repro_ingest_batch_seconds_sum{tier="shard"} 9.0
repro_transport_bytes_total{dir="send"} 21000
repro_transport_bytes_total{dir="recv"} 10500
repro_window_bucket_seals_total 17
repro_window_bucket_merges_total 4
repro_serve_queue_wait_seconds_sum 1.4
repro_serve_queue_wait_seconds_count 30
repro_serve_coalesced_records_sum 25000
repro_serve_coalesced_records_count 25
repro_gateway_request_seconds_sum{verb="ingest"} 6.0
repro_gateway_request_seconds_count{verb="ingest"} 30
repro_gateway_request_seconds_sum{verb="hull"} 0.5
repro_gateway_request_seconds_count{verb="hull"} 30
repro_gateway_ingest_bytes_total{tenant="bench"} 120000
repro_shard_streams{shard="0"} 40
repro_shard_streams{shard="1"} 24
"""


def test_prom_delta_on_a_canned_scrape():
    before, after = measure.parse_prom(BEFORE), measure.parse_prom(AFTER)
    d = measure.prom_delta(before, after)
    assert measure.prom_sum(d, "repro_shard_collect_seconds_sum") == pytest.approx(3.0)
    assert measure.prom_sum(d, "repro_shard_send_seconds_sum") == pytest.approx(0.6)
    assert measure.prom_sum(d, "repro_ingest_batch_seconds_sum", tier="engine") == pytest.approx(4.0)
    assert measure.prom_sum(d, "repro_window_bucket_merges_total") == 4
    assert measure.prom_values(after, "repro_shard_streams", "shard") == {"0": 40.0, "1": 24.0}
    with pytest.raises(ValueError):
        measure.parse_prom("not a sample line at all")


def test_served_layer_split_from_canned_scrapes():
    spec = served.SPEC
    phase = served.Phase([0.2] * 20, [0.21] * 20, [], [], [], first_due=0.0,
                         last_done=2.0, batches=20, scrape_s=0.02)
    m = served.layer_split(spec, phase, [BEFORE, AFTER])
    assert m["shard.collect_s"] == pytest.approx(3.0 / 20)
    assert m["shard.worker_apply_s"] == pytest.approx(4.0 / 20 / spec.workers)
    assert m["shard.pipe_wait_s"] == pytest.approx(3.0 / 20 - 4.0 / 20 / spec.workers)
    assert m["shard.bytes_sent"] == pytest.approx(20000 / 20)
    assert m["shard.streams_skew"] == pytest.approx(40 / 32)
    assert m["serve.queue_wait_s"] == pytest.approx(1.0 / 20)
    assert m["serve.coalesced_records_mean"] == pytest.approx(1000.0)
    assert m["serve.engine_calls"] == 15
    assert m["gateway.ingest_server_s"] == pytest.approx(0.2)
    assert m["gateway.client_overhead_ms"] == pytest.approx(10.0)
    assert m["window.bucket_seals"] == 10
    assert m["trace.overhead_frac"] == pytest.approx(0.01)
    assert m["core.insert_many_s"] == 0.0


def test_workloads_file_describes_the_code():
    import inproc

    doc = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    specs = {"keyed_ingest": inproc.KEYED, "long_stream": inproc.LONG, "served_window": served.SPEC}
    assert set(doc["workloads"]) == {w["name"] for w in BENCH["workloads"]} == set(specs)
    for name, spec in specs.items():
        assert doc["workloads"][name]["parameters"] == spec.doc()
    mapped = [m for layer in doc["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
