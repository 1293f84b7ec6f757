"""Registry semantics: naming scheme, collisions, declared tables,
disabled mode."""

import pytest

from repro.obs import Histogram, Registry, RegistryError, diff, sim_registry, validate_name


class Watched:
    """A stand-in counting class: a ``METRICS`` table plus its fields."""

    def __init__(self, *rows, **fields):
        self.METRICS = rows
        self.__dict__.update(fields)


def counter(name, value=0):
    return Watched((name, "counter", "value"), value=value)


# ---------------------------------------------------------------------------
# Naming scheme (the runtime side of iwarplint's IW501)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "verbs.qp.posts",
    "transport.rudp.retransmissions",
    "simnet.port.queue_hwm",
    "obs.registry.self_test",
    "rdmap.write_record.placed_bytes",
])
def test_valid_names_accepted(name):
    assert validate_name(name) == name


@pytest.mark.parametrize("name", [
    "verbs.posts",            # only two segments
    "qp.posts.total",         # unknown layer
    "Verbs.qp.posts",         # uppercase
    "verbs.qp.",              # trailing dot
    "verbs..posts",           # empty segment
    "verbs.qp.posts-total",   # illegal character
])
def test_bad_names_rejected(name):
    with pytest.raises(RegistryError):
        validate_name(name)
    reg = Registry(enabled=True)
    with pytest.raises(RegistryError):
        reg.watch(counter(name), {})


# ---------------------------------------------------------------------------
# Collisions
# ---------------------------------------------------------------------------


def test_kind_collision_raises():
    reg = Registry(enabled=True)
    reg.watch(counter("verbs.qp.posts"), {})
    with pytest.raises(RegistryError):
        reg.watch(Watched(("verbs.qp.posts", "gauge", "value"), value=0), {})


def test_histogram_edge_collision_raises():
    reg = Registry(enabled=True)
    row = ("verbs.cq.poll_batch", "histogram", "hist")
    reg.watch(Watched(row, hist=Histogram((1, 2, 4))), {"cq": "1"})
    # Same edges: no error.
    reg.watch(Watched(row, hist=Histogram((1, 2, 4))), {"cq": "2"})
    reg.collect()
    reg.watch(Watched(row, hist=Histogram((1, 2, 8))), {"cq": "3"})
    with pytest.raises(RegistryError):
        reg.collect()


def test_same_name_different_labels_are_distinct_series():
    reg = Registry(enabled=True)
    reg.watch(counter("verbs.qp.posts", 3), {"qp": "1"})
    reg.watch(counter("verbs.qp.posts", 5), {"qp": "2"})
    snap = reg.snapshot()
    assert snap['verbs.qp.posts{qp="1"}'] == 3
    assert snap['verbs.qp.posts{qp="2"}'] == 5


def test_label_order_is_canonical():
    # One series key whatever the label order; counters reported under
    # one key by several objects sum.
    reg = Registry(enabled=True)
    reg.watch(counter("verbs.qp.posts", 2), {"qp": "1", "host": "h0"})
    reg.watch(counter("verbs.qp.posts", 3), {"host": "h0", "qp": "1"})
    assert reg.snapshot() == {'verbs.qp.posts{host="h0",qp="1"}': 5}


# ---------------------------------------------------------------------------
# Declared tables
# ---------------------------------------------------------------------------


def test_fields_are_read_at_snapshot_time():
    reg = Registry(enabled=True)
    obj = counter("verbs.qp.posts")
    reg.watch(obj, {})
    obj.value += 7
    assert reg.snapshot() == {"verbs.qp.posts": 7}


def test_dict_keys_and_fixed_labels():
    reg = Registry(enabled=True)
    obj = Watched(
        ("transport.tcp.segments", "counter", "sent", "dir=tx"),
        ("transport.tcp.retransmits", "counter", "by_cause", "cause"),
        ("verbs.qp.completions", "counter", "by_queue", "queue,status"),
        sent=4, by_cause={"rto": 1, "fast": 2},
        by_queue={("rq", "success"): 3},
    )
    reg.watch(obj, {"host": "h0"})
    assert reg.snapshot() == {
        'transport.tcp.retransmits{cause="fast",host="h0"}': 2,
        'transport.tcp.retransmits{cause="rto",host="h0"}': 1,
        'transport.tcp.segments{dir="tx",host="h0"}': 4,
        'verbs.qp.completions{host="h0",queue="rq",status="success"}': 3,
    }


def test_nested_tables_read_under_parent_labels():
    stage_a = counter("simnet.faults.reordered", 2)
    stage_b = counter("simnet.faults.reordered", 3)
    model = Watched((None, "table", "stages"), stages=[stage_a, stage_b])
    port = Watched(
        ("simnet.port.tx_frames", "counter", "tx"),
        ("simnet.faults.seen", "counter", "model.seen"),
        (None, "table", "model"),
        tx=9, model=None,
    )
    reg = Registry(enabled=True)
    reg.watch(port, {"port": "p0"})
    # Nothing attached: the dotted path and the nested table yield nothing.
    assert reg.snapshot() == {'simnet.port.tx_frames{port="p0"}': 9}
    model.seen = 11
    port.model = model
    assert reg.snapshot() == {
        'simnet.faults.reordered{port="p0"}': 5,
        'simnet.faults.seen{port="p0"}': 11,
        'simnet.port.tx_frames{port="p0"}': 9,
    }


# ---------------------------------------------------------------------------
# Disabled mode (~zero cost)
# ---------------------------------------------------------------------------


def test_disabled_registry_keeps_no_references():
    reg = Registry(enabled=False)
    reg.watch(counter("simnet.port.tx_frames", 1), {})
    assert reg.collect() == []
    assert reg.snapshot() == {}
    # Disabled registries keep no references into the stack.
    assert reg._watched == []


def test_disabled_registry_skips_name_validation_cost_path():
    # Bad names are only caught when enabled — a disabled registry
    # returns before touching the table.  (IW501 still catches the
    # literal statically.)
    reg = Registry(enabled=False)
    reg.watch(counter("not a name"), {})


# ---------------------------------------------------------------------------
# snapshot / diff
# ---------------------------------------------------------------------------


def test_snapshot_prefix_filter():
    reg = Registry(enabled=True)
    reg.watch(counter("verbs.qp.posts", 1), {})
    reg.watch(counter("transport.rudp.retransmissions", 1), {})
    assert list(reg.snapshot("verbs.")) == ["verbs.qp.posts"]


def test_diff_counts_new_keys_from_zero_and_drops_vanished():
    before = {"verbs.qp.posts": 2, "verbs.qp.gone": 9}
    after = {"verbs.qp.posts": 5, "verbs.qp.new": 3}
    d = diff(before, after)
    assert d == {"verbs.qp.posts": 3, "verbs.qp.new": 3}


def test_diff_histograms_bucketwise():
    reg = Registry(enabled=True)
    h = Histogram((1, 4))
    reg.watch(Watched(("verbs.cq.poll_batch", "histogram", "h"), h=h), {})
    h.observe(1)
    before = reg.snapshot()
    h.observe(3)
    h.observe(100)
    d = diff(before, reg.snapshot())
    hd = d["verbs.cq.poll_batch"]
    assert hd["count"] == 2
    assert hd["sum"] == pytest.approx(103)
    assert hd["buckets"] == [[1.0, 0], [4.0, 1], ["+Inf", 2]]


# ---------------------------------------------------------------------------
# Per-simulator attachment
# ---------------------------------------------------------------------------


def test_sim_registry_first_caller_pins_enabled_state():
    class FakeSim:
        obs_registry = None

    sim = FakeSim()
    reg = sim_registry(sim, enable=True)
    assert reg.enabled
    # Later callers share the instance; a conflicting `enable` does not
    # flip an already-created registry.
    assert sim_registry(sim, enable=False) is reg
    assert reg.enabled
