"""Observability layer: tracer, metrics registry, exporters, contracts.

The load-bearing guarantees tested here:

* **Zero overhead when disabled** — with tracing off (the default) the
  tracer records nothing, hands out a shared no-op span, and a training
  run produces *bit-identical* results and sim event streams to a traced
  run (so the ``BENCH_spmm.json`` determinism guard keeps holding).
* **Tracing never changes numbers** — enabling spans on any backend
  yields the same losses/accuracy as the untraced run.
* **Traces are valid Chrome/Perfetto JSON** with per-rank tracks on the
  process backend, written by :func:`repro.obs.save_trace`.
* **Diagnostics** — a lost process-backend worker names the last
  collective it completed.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.comm import make_communicator
from repro.comm.faults import FaultPlan, WorkerFailure
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, DistTrainConfig, ProcessGrid, spmm,
                        train_distributed)
from repro.graphs import erdos_renyi_graph, gcn_normalize
from repro.obs import (NULL_SPAN, TRACE, MetricsRegistry, Tracer,
                       metrics_from_spans, percentile, prometheus_text,
                       save_trace, trace_events, trace_summary)


@pytest.fixture(autouse=True)
def _reset_trace():
    """Tests must never leak tracer state into each other (or into the
    rest of the suite, which asserts tracing-off behaviour)."""
    TRACE.disable()
    TRACE.clear()
    yield
    TRACE.disable()
    TRACE.clear()


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_hands_out_shared_noop_span(self):
        span = TRACE.span("anything", cat="x", args={"a": 1})
        assert span is NULL_SPAN
        with span as s:
            s.set(b=2)                      # must be a silent no-op
        TRACE.add_span("rank0", "w", "worker", 0.0, 1.0)
        TRACE.annotate(c=3)
        assert len(TRACE) == 0

    def test_nested_spans_record_in_exit_order(self):
        TRACE.enable()
        with TRACE.span("outer", cat="train"):
            with TRACE.span("inner", cat="train"):
                TRACE.annotate(step=7)
        spans = TRACE.spans()
        assert [s[1] for s in spans] == ["inner", "outer"]
        track, name, cat, t0, t1, args = spans[0]
        assert track == "driver" and cat == "train"
        assert args == {"step": 7}
        assert t0 <= t1
        outer = spans[1]
        assert outer[3] <= t0 and t1 <= outer[4]   # containment

    def test_add_span_records_foreign_tracks(self):
        TRACE.enable()
        TRACE.add_span("rank3", "worker.bcast", "worker", 1.0, 2.0,
                       {"op": "bcast"})
        (track, name, cat, t0, t1, args), = TRACE.spans()
        assert (track, name, t1 - t0) == ("rank3", "worker.bcast", 1.0)

    def test_disable_then_enable_is_clean(self):
        TRACE.enable()
        with TRACE.span("a"):
            pass
        TRACE.disable()
        with TRACE.span("b"):
            pass
        assert [s[1] for s in TRACE.spans()] == ["a"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_labels_are_order_insensitive(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", 10, category="bcast", rank=0)
        reg.counter("bytes_total", 5, rank=0, category="bcast")
        flat = reg.as_dict()
        assert flat['bytes_total{category="bcast",rank="0"}'] == 15.0

    def test_gauge_overwrites_and_may_hold_strings(self):
        reg = MetricsRegistry()
        reg.gauge("lr", 0.1)
        reg.gauge("lr", 0.2)
        reg.gauge("wire_dtype", "bfloat16")
        flat = reg.as_dict()
        assert flat["lr"] == 0.2
        assert flat["wire_dtype"] == "bfloat16"

    def test_histogram_expands_to_summary_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.observe("latency_seconds", v, op="bcast")
        flat = reg.as_dict()
        base = 'latency_seconds'
        assert flat[f'{base}_count{{op="bcast"}}'] == 4
        assert flat[f'{base}_sum{{op="bcast"}}'] == 10.0
        assert flat[f'{base}_min{{op="bcast"}}'] == 1.0
        assert flat[f'{base}_max{{op="bcast"}}'] == 4.0
        assert flat[f'{base}_mean{{op="bcast"}}'] == 2.5
        assert f'{base}_p50{{op="bcast"}}' in flat
        assert f'{base}_p95{{op="bcast"}}' in flat

    def test_concurrent_recording_is_exact(self):
        """Client threads and the serving thread record into one
        registry: no increment is lost, and a concurrent snapshot never
        sees a dict change size under it."""
        reg = MetricsRegistry()
        threads, calls = 4, 20_000
        done = threading.Event()
        errors = []

        def write(i: int) -> None:
            for n in range(calls):
                reg.counter("hits_total")
                if n % 100 == 0:                     # new keys keep coming
                    reg.gauge("depth", n, thread=i, n=n)
                    reg.observe("latency_seconds", n, thread=i, n=n)

        def read() -> None:
            while not done.is_set():
                try:
                    reg.as_dict()
                except RuntimeError as exc:          # pragma: no cover
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            writers = [threading.Thread(target=write, args=(i,))
                       for i in range(threads)]
            reader.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [reader])
        assert errors == []
        assert reg.as_dict()["hits_total"] == threads * calls

    def test_prometheus_text_renders_numbers_bools_and_strings(self):
        text = prometheus_text({
            "runs_total": 3.0,
            'bytes{category="bcast"}': 12,
            "overlap": True,
            "wire_dtype": "float32",
        })
        lines = text.splitlines()
        assert "runs_total 3.0" in lines
        assert 'bytes{category="bcast"} 12' in lines
        assert "overlap 1" in lines
        assert 'wire_dtype{value="float32"} 1' in lines
        assert text.endswith("\n")

    def test_client_label_values_cannot_forge_samples(self):
        """A label value carrying a quote, a newline and a backslash is
        escaped, so the exposition stays one sample per series."""
        reg = MetricsRegistry()
        tenant = 'acme"} 999\nfake_metric 1'
        reg.counter("serve_requests_total", 1, tenant=tenant)
        reg.counter("serve_requests_total", 2, tenant="a\\b")
        reg.gauge("note", 'say "hi"\n')
        lines = prometheus_text(reg.as_dict()).splitlines()
        assert lines == [
            'note{value="say \\"hi\\"\\n"} 1',
            'serve_requests_total{tenant="a\\\\b"} 2.0',
            'serve_requests_total{tenant="acme\\"} 999\\nfake_metric 1"}'
            ' 1.0',
        ]

    @pytest.mark.parametrize("value", [
        "plain", 'a"b', "a\\b", "a\nb", '\\"', '"} 1\nx 2', "\\n",
        "trailing\\"])
    def test_label_values_round_trip_through_the_exposition(self, value):
        """Each sample stays one well-formed line (only the three legal
        escapes inside a label value), and unescaping gives the value
        back, for a counter label and a string gauge alike."""
        reg = MetricsRegistry()
        reg.counter("hits_total", 1, tenant=value)
        reg.gauge("build", value)
        lines = prometheus_text(reg.as_dict()).splitlines()
        sample = re.compile(r'(\w+)\{(\w+)="((?:[^"\\\n]|\\[\\"n])*)"\} \S+')
        matches = [sample.fullmatch(line) for line in lines]
        assert len(lines) == 2 and all(matches), lines
        unescaped = {m.group(1): re.sub(r"\\(.)", lambda e: "\n" if
                                        e.group(1) == "n" else e.group(1),
                                        m.group(3))
                     for m in matches}
        assert unescaped == {"build": value, "hits_total": value}

    def test_prometheus_text_renders_infinities(self):
        text = prometheus_text({"hi": math.inf, "lo": -math.inf,
                                "nan": math.nan})
        assert text.splitlines() == ["hi +Inf", "lo -Inf", "nan NaN"]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExport:
    def test_no_spans_yields_no_events(self):
        assert trace_events() == []

    def test_events_have_metadata_and_slices(self):
        TRACE.enable()
        with TRACE.span("work", cat="train", args={"epoch": 0}):
            pass
        TRACE.add_span("rank0", "worker.bcast", "worker", 0.0, 1e-3)
        events = trace_events()
        json.dumps(events)                   # must be serializable
        names = {e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert names == {"driver", "rank0"}
        slices = [e for e in events if e["ph"] == "X"]
        assert {s["name"] for s in slices} == {"work", "worker.bcast"}
        assert all(s["ts"] >= 0.0 and s["dur"] >= 0.0 for s in slices)

    def test_save_trace_writes_span_trace(self, tmp_path):
        TRACE.enable()
        with TRACE.span("work"):
            pass
        out = tmp_path / "t.json"
        save_trace(str(out))
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])

    def test_save_trace_without_spans_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no spans recorded"):
            save_trace(str(tmp_path / "x.json"))
        assert not (tmp_path / "x.json").exists()

    def test_trace_summary_self_time_excludes_children(self):
        events = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "driver"}},
            {"name": "parent", "ph": "X", "pid": 0, "tid": 0,
             "ts": 0.0, "dur": 10.0, "args": {}},
            {"name": "child", "ph": "X", "pid": 0, "tid": 0,
             "ts": 2.0, "dur": 4.0, "args": {}},
        ]
        summary = trace_summary(events)
        by_name = {row["name"]: row for row in summary["slices"]}
        assert by_name["parent"]["self_ms"] == pytest.approx(6.0 / 1e3)
        assert by_name["child"]["self_ms"] == pytest.approx(4.0 / 1e3)
        (track,) = summary["tracks"]
        assert track["track"] == "driver" and track["slices"] == 2
        assert summary["imbalance"] == pytest.approx(0.0)

    def test_metrics_from_spans_builds_latency_histograms(self):
        TRACE.enable()
        TRACE.add_span("driver", "comm.broadcast", "bcast", 0.0, 0.5)
        TRACE.add_span("driver", "comm.broadcast", "bcast", 0.0, 1.5)
        TRACE.add_span("rank0", "worker.bcast", "worker", 0.0, 0.1)
        flat = metrics_from_spans().as_dict()
        assert flat['collective_seconds_count{op="broadcast"}'] == 2
        assert flat['collective_seconds_sum{op="broadcast"}'] == 2.0
        assert flat['spans_total{track="driver"}'] == 2
        assert flat['spans_total{track="rank0"}'] == 1


# ----------------------------------------------------------------------
# Traces of real SpMM runs, on every backend
# ----------------------------------------------------------------------
_SPMM_RUNS = [(backend, mode) for backend in ("sim", "threaded", "process")
              for mode in ("sparsity_aware", "oblivious")]


@pytest.fixture(scope="module", params=_SPMM_RUNS, ids="-".join)
def traced_spmm(request):
    """One traced one-shot 1D SpMM per (backend, mode).

    The spans are moved into a private tracer so the per-test reset of
    ``TRACE`` cannot drop them; the communicator's event log is the
    reference for the byte annotations.
    """
    backend, mode = request.param
    graph = gcn_normalize(erdos_renyi_graph(32, avg_degree=6, seed=1))
    dist = BlockRowDistribution.uniform(32, 4)
    h = np.random.default_rng(0).normal(size=(32, 4))
    TRACE.clear()
    TRACE.enable()
    comm = make_communicator(4, backend=backend)
    try:
        out = spmm(DistSparseMatrix(graph, dist),
                   DistDenseMatrix.from_global(h, dist), comm,
                   sparsity_aware=(mode == "sparsity_aware"))
    finally:
        comm.close()
        TRACE.disable()
    tracer = Tracer().enable()
    for span in TRACE.spans():
        tracer.add_span(*span)
    TRACE.clear()
    return SimpleNamespace(backend=backend, mode=mode, tracer=tracer,
                           events=comm.events, nranks=4,
                           result=out.to_global(), expected=graph @ h)


def _comm_slices(run):
    return [e for e in trace_events(run.tracer)
            if e["ph"] == "X" and e["name"].startswith("comm.")]


class TestTracedSpmm:
    def test_tracing_keeps_the_product_exact(self, traced_spmm):
        np.testing.assert_allclose(traced_spmm.result, traced_spmm.expected,
                                   atol=1e-12)

    def test_spmm_span_names_its_variant(self, traced_spmm):
        (span,) = [s for s in traced_spmm.tracer.spans() if s[1] == "spmm"]
        assert span[5]["algorithm"] == "1d"
        assert span[5]["mode"] == traced_spmm.mode
        assert span[5]["width"] == 4 and span[5]["call"] == 1

    def test_comm_slices_carry_the_event_log_volume(self, traced_spmm):
        slices = _comm_slices(traced_spmm)
        total = traced_spmm.events.total_bytes()
        assert total > 0
        assert sum(e["args"]["bytes"] for e in slices) == total
        assert all(e["args"]["backend"] == traced_spmm.backend
                   for e in slices)

    def test_one_comm_slice_per_collective_step(self, traced_spmm):
        steps = [e["args"]["step"] for e in _comm_slices(traced_spmm)]
        # Algorithm 1 is one all-to-allv; the oblivious baseline is one
        # broadcast per block row.
        expected = 1 if traced_spmm.mode == "sparsity_aware" \
            else traced_spmm.nranks
        assert sorted(steps) == list(range(expected))

    def test_slices_on_a_track_nest_or_are_disjoint(self, traced_spmm):
        by_tid = {}
        for e in trace_events(traced_spmm.tracer):
            if e["ph"] == "X":
                by_tid.setdefault(e["tid"], []).append(
                    (e["ts"], e["ts"] + e["dur"]))
        assert by_tid
        eps = 1e-6
        for intervals in by_tid.values():
            for a0, a1 in intervals:
                for b0, b1 in intervals:
                    disjoint = a1 <= b0 + eps or b1 <= a0 + eps
                    nested = (a0 <= b0 + eps and b1 <= a1 + eps) or \
                        (b0 <= a0 + eps and a1 <= b1 + eps)
                    assert disjoint or nested

    def test_saved_trace_has_one_slice_per_span(self, traced_spmm, tmp_path):
        out = tmp_path / "spmm.json"
        save_trace(str(out), traced_spmm.tracer)
        events = json.loads(out.read_text())["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        rows = {e["args"]["name"]: e["tid"] for e in events
                if e["ph"] == "M" and e["name"] == "thread_name"}
        assert len(slices) == len(traced_spmm.tracer)
        assert set(rows) == {s[0] for s in traced_spmm.tracer.spans()}
        assert rows["driver"] == 0
        workers = set(rows) - {"driver"}
        if traced_spmm.backend == "process":
            assert workers and workers <= {f"rank{r}" for r in range(4)}
            assert all(e["name"].startswith("worker.") for e in slices
                       if e["tid"] != rows["driver"])
        else:
            assert workers == set()

    def test_summary_accounts_for_every_slice(self, traced_spmm):
        summary = trace_summary(trace_events(traced_spmm.tracer), top=100)
        assert sum(t["slices"] for t in summary["tracks"]) == \
            len(traced_spmm.tracer)
        names = {row["name"] for row in summary["slices"]}
        assert {"spmm", "spmm.stage"} <= names
        assert all(row["self_ms"] >= 0.0 for row in summary["slices"])


@pytest.mark.parametrize("algorithm,mode,replication", [
    ("1.5d", "sparsity_aware", 2), ("1.5d", "oblivious", 2),
    ("1.5d", "sparsity_aware", 1), ("1.5d", "oblivious", 1),
], ids=["1.5d-sparsity_aware", "1.5d-oblivious",
        "1.5d-c1-sparsity_aware", "1.5d-c1-oblivious"])
def test_traced_grid_spmm_names_its_variant(algorithm, mode, replication):
    grid = ProcessGrid(nranks=4, replication=replication)
    graph = gcn_normalize(erdos_renyi_graph(24, avg_degree=4, seed=2))
    dist = BlockRowDistribution.uniform(24, grid.nrows)
    h = np.random.default_rng(1).normal(size=(24, 3))
    TRACE.enable()
    spmm(DistSparseMatrix(graph, dist), DistDenseMatrix.from_global(h, dist),
         make_communicator(4), algorithm=algorithm,
         sparsity_aware=(mode == "sparsity_aware"), grid=grid)
    (span,) = [s for s in TRACE.spans() if s[1] == "spmm"]
    assert (span[5]["algorithm"], span[5]["mode"]) == (algorithm, mode)


# ----------------------------------------------------------------------
# Zero-overhead + numerical-invariance contracts (satellite 3)
# ----------------------------------------------------------------------
def _tiny_config(backend: str, tmp_path=None, **kw) -> DistTrainConfig:
    kwargs = dict(n_ranks=2, epochs=2, hidden=8, n_layers=2, seed=0,
                  backend=backend)
    if tmp_path is not None:
        kwargs.update(checkpoint_dir=str(tmp_path / "ck"),
                      checkpoint_every=1)
    kwargs.update(kw)
    return DistTrainConfig(**kwargs)


class TestContracts:
    def test_sim_run_is_byte_identical_disabled_vs_enabled(self, tiny_dataset):
        cfg = _tiny_config("sim")
        r_off = train_distributed(tiny_dataset, cfg, eval_every=0)
        assert len(TRACE) == 0               # disabled run recorded nothing
        TRACE.enable()
        r_on = train_distributed(tiny_dataset, cfg, eval_every=0)
        assert len(TRACE) > 0
        assert [rec.loss for rec in r_off.history] == \
               [rec.loss for rec in r_on.history]
        # Simulated clocks and the event stream must be unaffected too —
        # this is what keeps the seed BENCH_spmm.json rows byte-identical.
        assert [rec.epoch_time_s for rec in r_off.history] == \
               [rec.epoch_time_s for rec in r_on.history]
        assert r_off.total_time_s == r_on.total_time_s
        assert list(r_off.model.comm.events) == list(r_on.model.comm.events)
        assert r_off.test_accuracy == r_on.test_accuracy

    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_real_backends_numerics_unchanged_by_tracing(self, tiny_dataset,
                                                         backend):
        cfg = _tiny_config(backend)
        r_off = train_distributed(tiny_dataset, cfg, eval_every=0)
        TRACE.enable()
        r_on = train_distributed(tiny_dataset, cfg, eval_every=0)
        assert [rec.loss for rec in r_off.history] == \
               [rec.loss for rec in r_on.history]
        assert r_off.test_accuracy == r_on.test_accuracy

    def test_traced_sim_run_emits_expected_span_families(self, tiny_dataset,
                                                         tmp_path):
        TRACE.enable()
        cfg = _tiny_config("sim", tmp_path, grad_overlap=True)
        train_distributed(tiny_dataset, cfg, eval_every=0)
        names = {s[1] for s in TRACE.spans()}
        for expected in ("epoch", "forward", "backward", "optimizer",
                         "spmm", "spmm.stage", "gradsync.post",
                         "gradsync.drain", "checkpoint.save"):
            assert expected in names, f"missing span {expected}: {names}"
        assert any(n.startswith("comm.") for n in names)

    def test_process_trace_has_per_rank_worker_tracks(self, tiny_dataset,
                                                      tmp_path):
        TRACE.enable()
        cfg = _tiny_config("process", tmp_path, epochs=1)
        train_distributed(tiny_dataset, cfg, eval_every=0)
        out = tmp_path / "proc.json"
        save_trace(str(out))
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        tracks = {e["args"]["name"]: e["tid"] for e in events
                  if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert {"driver", "rank0", "rank1"} <= set(tracks)
        for rank in ("rank0", "rank1"):
            tid = tracks[rank]
            rank_slices = [e for e in events
                           if e.get("ph") == "X" and e["tid"] == tid]
            assert rank_slices, f"no slices on {rank}"
            assert all(e["name"].startswith("worker.") for e in rank_slices)

    def test_result_metrics_registry_snapshot(self, tiny_dataset, tmp_path):
        cfg = _tiny_config("sim", tmp_path, grad_overlap=True)
        result = train_distributed(tiny_dataset, cfg, eval_every=0)
        m = result.metrics
        assert m["restarts_total"] == 0
        assert 'time_s_per_epoch{category="local"}' in m
        assert any(k.startswith("comm_bytes_total{") for k in m)
        assert m["checkpoint_save_seconds_count"] == cfg.epochs
        # The derived trio the CLI prints comes from this same dict.
        assert m["gradsync_comm_s_per_epoch"] >= 0.0
        assert m["gradsync_compute_s_per_epoch"] >= 0.0
        assert m["overlap_hidden_s_per_epoch"] <= \
               m["gradsync_comm_s_per_epoch"]
        prometheus_text(m)                   # must serialize cleanly


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_train_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        prom_path = tmp_path / "m.prom"
        rc = main(["train", "--dataset", "reddit", "--scale", "0.05",
                   "--ranks", "2", "--epochs", "1",
                   "--trace", str(trace_path), "--metrics", str(prom_path)])
        assert rc == 0
        payload = json.loads(trace_path.read_text())
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])
        prom = prom_path.read_text()
        assert "restarts_total 0" in prom
        out = capsys.readouterr().out
        assert "wrote trace" in out and "wrote metrics" in out

        rc = main(["trace", "view", str(trace_path), "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top slices by self time" in out
        assert "imbalance" in out

    def test_trace_view_rejects_non_trace_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace", "view", str(bogus)]) == 1


# ----------------------------------------------------------------------
# Failure diagnostics (satellite 2)
# ----------------------------------------------------------------------
class TestFailureDiagnostics:
    def test_lost_worker_names_last_completed_collective(self):
        comm = make_communicator(2, backend="process")
        try:
            comm.inject_faults(FaultPlan.kill(rank=1, op_index=1))
            comm.note_epoch(0)
            out = comm.allreduce([np.ones(2)] * 2)   # op 0 completes
            np.testing.assert_array_equal(out[0], np.full(2, 2.0))
            with pytest.raises(WorkerFailure) as excinfo:
                comm.broadcast(np.ones(4), root=0)   # op 1: rank 1 dies
            msg = str(excinfo.value)
            assert "rank 1" in msg
            assert "last completed" in msg
            assert "epoch 0" in msg
        finally:
            comm.close()


# ----------------------------------------------------------------------
# Summarizer edge cases: empty and single-span runs, n=1 histograms
# ----------------------------------------------------------------------
class TestSummaryEdgeCases:
    """The serve/trace tooling feeds tiny runs (one request, one span)
    through the same summarizers as full training runs — the degenerate
    shapes must not divide by zero or index past the end."""

    def test_trace_summary_of_empty_trace(self):
        summary = trace_summary({"traceEvents": []})
        assert summary == {"slices": [], "tracks": [], "imbalance": 0.0}

    def test_trace_summary_of_single_span_run(self):
        TRACE.enable()
        TRACE.add_span("driver", "serve.batch", "serve", 1.0, 1.5,
                       {"requests": 1})
        summary = trace_summary(trace_events())
        assert [s["name"] for s in summary["slices"]] == ["serve.batch"]
        assert summary["slices"][0]["count"] == 1
        assert summary["slices"][0]["self_ms"] == pytest.approx(500.0)
        (track,) = summary["tracks"]
        assert track["track"] == "driver" and track["slices"] == 1
        # One track is trivially balanced: max/mean - 1 == 0.
        assert summary["imbalance"] == 0.0

    def test_metrics_from_spans_on_empty_tracer(self):
        assert metrics_from_spans().as_dict() == {}

    def test_metrics_from_spans_on_single_span(self):
        TRACE.enable()
        TRACE.add_span("rank0", "comm.bcast", "worker", 0.0, 0.25)
        flat = metrics_from_spans().as_dict()
        assert flat['spans_total{track="rank0"}'] == 1.0
        assert flat['collective_seconds_count{op="bcast"}'] == 1.0
        assert flat['collective_seconds_p99{op="bcast"}'] == 0.25

    def test_histogram_percentiles_collapse_at_n_1(self):
        reg = MetricsRegistry()
        reg.observe("latency_seconds", 0.125)
        flat = reg.as_dict()
        # With one sample every summary statistic is that sample.
        for stat in ("min", "max", "mean", "p50", "p95", "p99"):
            assert flat[f"latency_seconds_{stat}"] == 0.125
        assert flat["latency_seconds_count"] == 1.0
        assert flat["latency_seconds_sum"] == 0.125

    def test_percentile_helper_matches_histogram_expansion(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        reg = MetricsRegistry()
        for v in values:
            reg.observe("x", v)
        flat = reg.as_dict()
        assert percentile(values, 0.50) == flat["x_p50"]
        assert percentile(values, 0.99) == flat["x_p99"]
        assert percentile([7.5], 0.99) == 7.5
        assert math.isnan(percentile([], 0.5))
