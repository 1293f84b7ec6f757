"""Exporter golden tests: the JSON interchange form and the Prometheus
text exposition form of one registry over hand-built objects, byte for
byte, and the ``python -m repro.obs`` subcommands run on that snapshot
file."""

import json

import pytest

from repro.obs import (
    Histogram, Registry, dicts_to_samples, merge_samples, samples_to_dicts,
    to_json, to_json_obj, to_prometheus,
)
from repro.obs.cli import main


class _Qp:
    METRICS = (("verbs.qp.posts", "counter", "posts"),)

    def __init__(self, posts):
        self.posts = posts


class _Port:
    METRICS = (("simnet.port.queue_hwm", "gauge", "queue_hwm"),)

    def __init__(self, queue_hwm):
        self.queue_hwm = queue_hwm


class _Cq:
    METRICS = (("verbs.cq.poll_batch", "histogram", "poll_batch"),)

    def __init__(self, edges):
        self.poll_batch = Histogram(edges)


def _build(queue_hwm=7) -> Registry:
    reg = Registry(enabled=True)
    reg.watch(_Qp(4), {"qp": "1", "host": "host0"})
    reg.watch(_Qp(2), {"qp": "2", "host": "host1"})
    reg.watch(_Port(queue_hwm), {"port": "host0.p0"})
    cq = _Cq((1, 2, 4))
    for v in (1, 1, 3, 9):
        cq.poll_batch.observe(v)
    reg.watch(cq, {"cq": "1"})
    return reg


GOLDEN_JSON = {
    "metrics": [
        {
            "name": "simnet.port.queue_hwm",
            "labels": {"port": "host0.p0"},
            "kind": "gauge",
            "value": 7,
        },
        {
            "name": "verbs.cq.poll_batch",
            "labels": {"cq": "1"},
            "kind": "histogram",
            "count": 4,
            "sum": 14.0,
            "buckets": [[1.0, 2], [2.0, 2], [4.0, 3], ["+Inf", 4]],
        },
        {
            "name": "verbs.qp.posts",
            "labels": {"host": "host0", "qp": "1"},
            "kind": "counter",
            "value": 4,
        },
        {
            "name": "verbs.qp.posts",
            "labels": {"host": "host1", "qp": "2"},
            "kind": "counter",
            "value": 2,
        },
    ]
}

GOLDEN_PROM = """\
# TYPE simnet_port_queue_hwm gauge
simnet_port_queue_hwm{port="host0.p0"} 7
# TYPE verbs_cq_poll_batch histogram
verbs_cq_poll_batch_bucket{cq="1",le="1"} 2
verbs_cq_poll_batch_bucket{cq="1",le="2"} 2
verbs_cq_poll_batch_bucket{cq="1",le="4"} 3
verbs_cq_poll_batch_bucket{cq="1",le="+Inf"} 4
verbs_cq_poll_batch_sum{cq="1"} 14
verbs_cq_poll_batch_count{cq="1"} 4
# TYPE verbs_qp_posts counter
verbs_qp_posts{host="host0",qp="1"} 4
verbs_qp_posts{host="host1",qp="2"} 2
"""


def test_json_golden():
    assert to_json_obj(_build()) == GOLDEN_JSON
    # The string form parses back to the same object (stable on disk).
    assert json.loads(to_json(_build())) == GOLDEN_JSON


def test_prometheus_golden():
    assert to_prometheus(_build()) == GOLDEN_PROM


def test_json_round_trip():
    samples = _build().collect()
    assert dicts_to_samples(samples_to_dicts(samples)) == samples


def test_merge_samples_sums_counters_maxes_gauges_folds_histograms():
    a, b = _build(), _build(queue_hwm=3)  # lower
    merged = merge_samples([a.collect(), b.collect()])
    by_key = {s.key(): s for s in merged}
    assert by_key['verbs.qp.posts{host="host0",qp="1"}'].value == 8
    assert by_key['simnet.port.queue_hwm{port="host0.p0"}'].value == 7
    hist = by_key['verbs.cq.poll_batch{cq="1"}'].value
    assert hist["count"] == 8
    assert hist["sum"] == pytest.approx(28.0)
    assert hist["buckets"] == [[1.0, 4], [2.0, 4], [4.0, 6], ["+Inf", 8]]


def test_merge_samples_rejects_differing_histogram_buckets():
    a, b = Registry(enabled=True), Registry(enabled=True)
    for reg, edges in ((a, (1, 2)), (b, (1, 4))):
        cq = _Cq(edges)
        cq.poll_batch.observe(1)
        reg.watch(cq, {})
    with pytest.raises(ValueError):
        merge_samples([a.collect(), b.collect()])


def test_dump_tracked_writes_interchange_format(tmp_path, monkeypatch):
    import repro.obs.metrics as metrics_mod
    from repro.obs import dump_tracked

    monkeypatch.setattr(metrics_mod, "_TRACKED", [_build(), _build()])
    # export.py binds the same list object at import time; patch both.
    import repro.obs.export as export_mod

    monkeypatch.setattr(export_mod, "_TRACKED", metrics_mod._TRACKED)
    out = tmp_path / "snapshot.json"
    n = dump_tracked(str(out))
    data = json.loads(out.read_text())
    assert n == len(data["metrics"]) == 4
    by_name = {
        (row["name"], tuple(sorted(row["labels"].items()))): row
        for row in data["metrics"]
    }
    assert by_name[("verbs.qp.posts", (("host", "host0"), ("qp", "1")))]["value"] == 8


def _snapshot_file(tmp_path, name, reg):
    path = tmp_path / name
    path.write_text(to_json(reg))
    return str(path)


def test_cli_dump_renders_the_snapshot_file(tmp_path, capsys):
    path = _snapshot_file(tmp_path, "snap.json", _build())
    assert main(["dump", path]) == 0
    assert json.loads(capsys.readouterr().out) == GOLDEN_JSON
    assert main(["dump", path, "--format", "prom"]) == 0
    assert capsys.readouterr().out == GOLDEN_PROM
    assert main(["dump", path, "--format", "prom", "--prefix", "verbs.qp"]) == 0
    assert capsys.readouterr().out == GOLDEN_PROM[GOLDEN_PROM.index("# TYPE verbs_qp"):]


def test_cli_summarize_totals_layers_and_top_counters(tmp_path, capsys):
    assert main(["summarize", _snapshot_file(tmp_path, "snap.json", _build()),
                 "--top", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "4 series across 2 layers",
        "  simnet           1 series           0 events",
        "  verbs            3 series          10 events",
        "top counters (of 2):",
        '           4  verbs.qp.posts{host="host0",qp="1"}',
        "histograms:",
        '  verbs.cq.poll_batch{cq="1"}: count=4 mean=3.50',
    ]


def test_cli_diff_lists_changed_series(tmp_path, capsys):
    before = _snapshot_file(tmp_path, "before.json", _build())
    after = _snapshot_file(tmp_path, "after.json", _build(queue_hwm=9))
    assert main(["diff", before, after]) == 0
    assert capsys.readouterr().out.splitlines() == [
        '  simnet.port.queue_hwm{port="host0.p0"}: +2',
        "1 series changed",
    ]
