"""The paper's evaluation claims, each declared once.

``CLAIMS`` holds one row per headline claim of the paper's §VI (rows
1–19, Figs. 5–11) and per design ablation (rows A1–A5).  A row reads its
values from ``results/*.json``, bounds the values it checks (an open
interval; ``None`` leaves a side open) and formats the measured cell of
EXPERIMENTS.md.  Values a row shows but does not bound are display only.

* The ``benchmarks/`` test that writes a row's inputs saves its JSON and
  then calls :func:`check` with the row's ``figure``, so a row is never
  judged on a mix of fresh and stale files.
* The tier-1 tests check every row against the committed ``results/``.
* ``python -m repro.bench.claims`` rewrites the EXPERIMENTS.md tables
  between ``<!-- begin NAME -->`` and ``<!-- end NAME -->`` markers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .report import load_json

ROOT = Path(__file__).resolve().parents[3]
RESULTS_DIR = ROOT / "results"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"

Results = Dict[str, Any]
Bound = Tuple[Optional[float], Optional[float]]

VERBS_MODES = ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write")


@dataclass(frozen=True)
class Claim:
    num: str  # "1"–"19": EXPERIMENTS.md's summary; "A1"–"A5": its ablation table
    figure: str  # the check() name of the one benchmark test that writes the row's inputs
    text: str
    paper: str  # the paper's value; for an ablation, its tie-in to the text
    values: Callable[[Results], Dict[str, float]]
    bounds: Dict[str, Bound]
    measured: str  # format of the values in EXPERIMENTS.md
    verdict: str = "reproduced"
    anchor: bool = False  # ⚓: a value the cost model is calibrated to


def _lat(r: Results, mode: str) -> Dict[int, float]:
    """Fig. 5 one-way latency (µs) by message size, all three panels."""
    return {int(size): us for panel in ("small", "medium", "large")
            for size, us in r[f"fig05_{panel}"][mode].items()}


def _steps(values: Iterable[float]) -> List[float]:
    """Differences between consecutive values."""
    v = list(values)
    return [b - a for a, b in zip(v, v[1:])]


def _fig05(r: Results) -> Dict[str, float]:
    ud, wr, rc, rcw = (_lat(r, mode) for mode in VERBS_MODES)
    # Percent latency gain of UD over RC, by size up to 2 KB.
    sr_gain = {s: 100 * (1 - ud[s] / rc[s]) for s in ud if s <= 2048}
    wr_gain = {s: 100 * (1 - wr[s] / rcw[s]) for s in wr if s <= 2048}
    return {
        "ud_lo": min(v for s, v in ud.items() if s <= 256),
        "ud_hi": max(v for s, v in ud.items() if s <= 256),
        "rc_lo": min(v for s, v in rc.items() if s <= 256),
        "rc_hi": max(v for s, v in rc.items() if s <= 256),
        "sr_gain_2K": sr_gain[2048], "sr_gain_worst": min(sr_gain.values()),
        "wr_gain_2K": wr_gain[2048], "wr_gain_worst": min(wr_gain.values()),
        "rc_over_ud_16_64K": max(rc[s] / ud[s] for s in (16384, 32768, 65536)),
        "ud_over_rc_large": max(max(ud[s] / rc[s], wr[s] / rcw[s]) for s in ud if s >= 131072),
        "wr_over_sr_1M": wr[1048576] / ud[1048576],
    }


def _fig06(r: Results) -> Dict[str, float]:
    bw, ratios = r["fig06_bandwidth"]["series"], r["fig06_bandwidth"]["ratios"]
    sizes = bw["ud_sendrecv"]
    return {
        **{f"{name}_gain": 100 * (ratio - 1) for name, ratio in ratios.items()},
        "wrr_big_lo": min(bw["ud_write_record"][s] for s in ("524288", "1048576")),
        "wrr_big_hi": max(bw["ud_write_record"][s] for s in ("524288", "1048576")),
        "wrr_over_udsr": min(bw["ud_write_record"][s] / bw["ud_sendrecv"][s] for s in sizes),
        "rcw_over_rcsr": max(bw["rc_rdma_write"][s] / bw["rc_sendrecv"][s] for s in sizes),
    }


def _loss(r: Results, name: str) -> Dict[int, Dict[float, float]]:
    """A Fig. 7/8 sweep: MB/s by message size and loss rate, both ascending."""
    return dict(sorted((int(size), dict(sorted((float(rate), mbs) for rate, mbs in row.items())))
                       for size, row in r[name].items()))


def _fig07(r: Results) -> Dict[str, float]:
    d = _loss(r, "fig07_loss_sendrecv")
    return {
        "mb_1M": max(d[1048576][rate] for rate in (0.005, 0.01, 0.05)),
        "small_kept": d[1024][0.05] / d[1024][0.001],
        "collapse_1M": d[1048576][0.005] / d[1048576][0.001],
        "at_5pct": max(d[262144][0.05], d[1048576][0.05]),
        # Largest rise from one loss rate to the next (monotone up to noise).
        "rise": max(x for size in (65536, 262144, 1048576) for x in _steps(d[size].values())),
    }


def _fig08(r: Results) -> Dict[str, float]:
    d = _loss(r, "fig08_loss_writerecord")
    contrast = r["fig08_contrast"]
    return {
        "mb_1M_1pct": d[1048576][0.01],
        "held": min(d[262144][0.01], d[1048576][0.01]),
        "cliff": d[49152][0.05] / d[262144][0.01],
        "contrast": contrast["ud_write_record"] / max(contrast["ud_sendrecv"], 1),
        "mb_1M_5pct": d[1048576][0.05],
        "breakdown": d[1048576][0.05] / d[1048576][0.001],
    }


def _fig09(r: Results) -> Dict[str, float]:
    d = r["fig09_vlc"]
    return {"improvement": d["improvement_percent"], "sr": d["ud_sendrecv_ms"],
            "wr": d["ud_write_record_ms"], "ratio": d["ud_sendrecv_ms"] / d["ud_write_record_ms"]}


def _fig11(r: Results) -> Dict[str, float]:
    d = r["fig11_sip_memory"]
    return {
        "at_10k": d["model"]["10000"],
        "live_gap": max(abs(v - d["model"][n]) for n, v in d["live"].items()),
        "rise": min(_steps(v for _, v in sorted((int(n), v) for n, v in d["model"].items()))),
        "socket_only": d["socket_only_percent"],
    }


def _keys(name: str, **keys: str) -> Callable[[Results], Dict[str, float]]:
    """Values read straight from ``results/<name>.json``, renamed."""
    return lambda r: {k: r[name][key] for k, key in keys.items()}


def _mtu(r: Results) -> Dict[str, float]:
    d = r["ablation_mtu"]
    clean = d["64K_clean"] / d["mtu_clean"]
    lossy = d["64K_lossy"] / max(d["mtu_lossy"], 0.1)
    return {"big": d["64K_lossy"], "mtu": d["mtu_lossy"], "clean": clean,
            "narrowing": lossy / clean}


def _transports(r: Results) -> Dict[str, float]:
    d = r["ablation_transports"]
    ud, rd, rc = (d[f"{m}_sendrecv_clean"] for m in ("ud", "rd", "rc"))
    rd_lossy, rc_lossy = d["rd_sendrecv_lossy"], d["rc_sendrecv_lossy"]
    return {"ud": ud, "rc": rc, "rd": rd, "rd_lossy": rd_lossy, "rc_lossy": rc_lossy,
            "reliable": min(d["rd_sendrecv_lossy_delivered"], d["rc_sendrecv_lossy_delivered"]),
            "ud_delivered": d["ud_sendrecv_lossy_delivered"], "ud_over_rc": ud / rc,
            "rc_over_rd": rc / rd, "rd_over_rc_lossy": rd_lossy / rc_lossy}


def _llp(r: Results) -> Dict[str, float]:
    d = r["ablation_llp"]
    ud, sctp, tcp = (d[m]["bandwidth_256K_mbs"]
                     for m in ("ud_sendrecv", "rcsctp_sendrecv", "rc_sendrecv"))
    return {"ud": ud, "sctp": sctp, "tcp": tcp, "ud_over_sctp": ud / sctp,
            "sctp_over_tcp": sctp / tcp,
            "lat_ud_over_sctp": d["ud_sendrecv"]["latency_64B_us"]
            / d["rcsctp_sendrecv"]["latency_64B_us"]}


CLAIMS: Tuple[Claim, ...] = (
    Claim("1", "fig05", "UD small-message one-way latency", "27–28 µs", _fig05,
          {"ud_lo": (22, None), "ud_hi": (None, 32)}, "{ud_lo:.1f}–{ud_hi:.1f} µs", anchor=True),
    Claim("2", "fig05", "RC small-message one-way latency", "~33 µs", _fig05,
          {"rc_lo": (28, None), "rc_hi": (None, 39.6)}, "{rc_lo:.1f}–{rc_hi:.1f} µs",
          anchor=True),
    Claim("3", "fig05", "UD s/r latency improvement ≤2 KB", "18.1 %", _fig05,
          {"sr_gain_worst": (5, None)}, "{sr_gain_2K:.1f} %", "reproduced (shape)"),
    Claim("4", "fig05", "UD WR-R vs RC Write latency ≤2 KB", "24.4 %", _fig05,
          {"wr_gain_worst": (5, None)}, "{wr_gain_2K:.1f} %", "reproduced (shape, overshoot)"),
    Claim("5", "fig05", "RC s/r slightly best at 16–64 KB", "(Fig. 5)", _fig05,
          {"rc_over_ud_16_64K": (None, 1)}, "RC wins at 16/32/64 KB",
          "**crossover reproduced**"),
    Claim("6", "fig05", "UD best ≥128 KB", "(Fig. 5)", _fig05,
          {"ud_over_rc_large": (None, 1), "wr_over_sr_1M": (None, 1)}, "UD wins at 128 KB–1 MB"),
    # "wrr_big": WR-R at 512 KB and 1 MB sits under the paper's
    # software-stack ceiling of ~235–250 MB/s.
    Claim("7", "fig06", "WR-R bandwidth vs RC Write at 512 KB", "+256 %", _fig06,
          {"wrr_vs_rcw_512K_gain": (150, None), "wrr_big_lo": (200, None),
           "wrr_big_hi": (None, 300), "wrr_over_udsr": (0.9, None), "rcw_over_rcsr": (None, 1)},
          "+{wrr_vs_rcw_512K_gain:.0f} %"),
    Claim("8", "fig06", "UD s/r vs RC s/r at 256 KB", "+33.4 %", _fig06,
          {"udsr_vs_rcsr_256K_gain": (5, 100)}, "+{udsr_vs_rcsr_256K_gain:.0f} %",
          "direction reproduced"),
    Claim("9", "fig06", "WR-R vs RC Write at 1 KB", "+188.8 %", _fig06,
          {"wrr_vs_rcw_1K_gain": (30, None)}, "+{wrr_vs_rcw_1K_gain:.0f} %",
          "direction reproduced (see deviations)"),
    Claim("10", "fig06", "UD s/r vs RC s/r at 1 KB", "+193 %", _fig06,
          {"udsr_vs_rcsr_1K_gain": (0, None)}, "+{udsr_vs_rcsr_1K_gain:.0f} %",
          "direction reproduced (see deviations)"),
    Claim("11", "fig07", "s/r collapse under loss (Fig. 7)", "total for large msgs", _fig07,
          {"small_kept": (0.8, None), "collapse_1M": (None, 0.3), "at_5pct": (None, 5),
           "rise": (None, 5)}, "1 MB: {mb_1M:.0f} MB/s at ≥0.5 %"),
    Claim("12", "fig08", "WR-R partial placement (Fig. 8)", "sustains >64 KB", _fig08,
          {"held": (150, None), "cliff": (None, 1), "contrast": (10, None)},
          "1 MB @1 %: {mb_1M_1pct:.1f} MB/s", "**reproduced**"),
    Claim("13", "fig08", "WR-R breakdown at ~5 % loss", '"total breakdown"', _fig08,
          {"breakdown": (None, 0.25)}, "1 MB @5 %: {mb_1M_5pct:.1f} MB/s"),
    Claim("14", "fig09", "VLC buffering, UD vs RC/HTTP", "−74.1 %", _fig09,
          {"improvement": (50, None)}, "−{improvement:.1f} %"),
    Claim("15", "fig09", "s/r ≈ WR-R through the shim", '"almost identical"', _fig09,
          {"ratio": (0.8, 1.2)}, "{sr:.1f} vs {wr:.1f} ms"),
    Claim("16", "shim", "Shim overhead vs native UDP", "~2 %",
          _keys("shim_overhead", overhead="overhead_percent"),
          {"overhead": (-1, 8)}, "{overhead:.1f} %"),
    Claim("17", "fig10", "SIP response time UD vs RC", "0.35/0.62 ms, −43.1 %",
          _keys("fig10_sip_response", ud="ud_ms", rc="rc_ms", improvement="improvement_percent"),
          {"ud": (0.25, 0.50), "rc": (0.45, 0.80), "improvement": (30, 55)},
          "{ud:.3f}/{rc:.3f} ms, −{improvement:.1f} %", anchor=True),
    Claim("18", "fig11", "SIP memory improvement @10 k calls", "24.1 %", _fig11,
          {"at_10k": (22, 26), "live_gap": (None, 0.2), "rise": (0, None)},
          "{at_10k:.1f} %", anchor=True),
    Claim("19", "fig11", "Socket-only memory prediction", "28.1 %", _fig11,
          {"socket_only": (26, 30)}, "{socket_only:.1f} %", anchor=True),
    Claim("A1", "ablation_mpa", "MPA markers off",
          "§IV.A: marker insertion is real overhead the UD path deletes",
          _keys("ablation_mpa", on="markers_on", off="markers_off",
                gain="markerless_gain_percent"),
          {"gain": (0, None)}, "+{gain:.1f} % RC bandwidth ({on:.1f}→{off:.1f} MB/s)"),
    Claim("A2", "ablation_crc", "UDP checksum re-enabled",
          '§V: "recommended that CRC checking be disabled at the UDP layer"',
          _keys("ablation_crc", off="udp_checksum_off", on="udp_checksum_on",
                penalty="double_checksum_penalty_percent"),
          {"penalty": (0, None)}, "−{penalty:.1f} % WR-R bandwidth ({off:.1f}→{on:.1f})"),
    Claim("A3", "ablation_mtu", "1408 B vs 64 KB UD segments", "§IV.B.4 segmentation trade-off",
          _mtu, {"clean": (1, None), "narrowing": (None, 1)},
          "clean: 64 KB wins {clean:.1f}×; @1 % loss the gap narrows ({big:.0f} vs {mtu:.0f})"),
    Claim("A4", "ablation_transports", "UD vs RD vs RC @64 KB",
          '§I: reliability "can be supplemented by a reliability mechanism (like reliable UDP)"',
          _transports, {"ud_over_rc": (1, None), "rc_over_rd": (1, None),
                        "rd_over_rc_lossy": (1, None)},
          "clean: UD {ud:.0f} > RC {rc:.0f} > RD {rd:.0f}; @1 % loss RD {rd_lossy:.0f} MB/s "
          "beats RC {rc_lossy:.1f}, both deliver {reliable}/40, UD {ud_delivered}/40"),
    Claim("A5", "ablation_llp", "LLP: TCP+MPA vs SCTP vs UDP @256 KB",
          "§II/§IV.A: SCTP's message boundaries delete MPA, but connection machinery "
          "still trails datagrams",
          _llp, {"ud_over_sctp": (1, None), "sctp_over_tcp": (1, None),
                 "lat_ud_over_sctp": (None, 1)},
          "UDP {ud:.1f} > SCTP {sctp:.1f} > TCP {tcp:.1f} MB/s"),
)


def load_results() -> Results:
    """Every ``results/*.json``, by file stem."""
    return {path.stem: load_json(path) for path in sorted(RESULTS_DIR.glob("*.json"))}


def failures(claim: Claim, values: Dict[str, float]) -> List[str]:
    """The bounds of ``claim`` that ``values`` break."""
    return [f"{name} = {values[name]:.4g} outside ({lo}, {hi})"
            for name, (lo, hi) in claim.bounds.items()
            if not ((lo is None or values[name] > lo) and (hi is None or values[name] < hi))]


def broken(r: Results, *nums: str) -> List[str]:
    """The bounds of claims ``nums`` that ``r`` breaks."""
    return [f"claim {c.num}: {b}" for c in CLAIMS if c.num in nums
            for b in failures(c, c.values(r))]


def _fmt(spec: str, values: Dict[str, Any]) -> str:
    """``spec.format`` with results rounded half up, as in a hand-written table."""
    with localcontext() as ctx:
        ctx.rounding = ROUND_HALF_UP
        return spec.format(**{k: Decimal(repr(v)) if isinstance(v, float) else v
                              for k, v in values.items()})


def measured(claim: Claim, r: Results) -> str:
    return _fmt(claim.measured, claim.values(r)) + (" ⚓" if claim.anchor else "")


def check(figure: Optional[str] = None, r: Optional[Results] = None) -> None:
    """Check every row of ``figure`` (every row when None) against
    ``results/``; print the EXPERIMENTS.md table named ``figure`` and the
    rows, and raise AssertionError on a broken bound."""
    r = load_results() if r is None else r
    claims = [c for c in CLAIMS if figure in (None, c.figure)]
    tables = render_tables(r)
    if figure in tables:
        print(f"\n{tables[figure]}")
    if claims:
        print("\n" + _table(["#", "claim", "paper", "measured", "bounds"],
                            [[c.num, c.text, c.paper, measured(c, r),
                              "; ".join(failures(c, c.values(r))) or "hold"] for c in claims]))
    errors = broken(r, *(c.num for c in claims))
    if errors:
        raise AssertionError("; ".join(errors))


def _table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A markdown table; float cells get one decimal."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(_fmt("{v:.1f}", {"v": c}) if isinstance(c, float) else str(c)
                                for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _size(n: int) -> str:
    return f"{n >> 20} MB" if n >= 1 << 20 else f"{n >> 10} KB" if n >= 1024 else f"{n} B"


def _loss_table(r: Results, name: str) -> str:
    d = _loss(r, name)
    rates = list(next(iter(d.values())))
    return _table(["size"] + [f"{100 * p:g} %" for p in rates],
                  [[_size(s)] + [d[s][p] for p in rates] for s in d])


def render_tables(r: Results) -> Dict[str, str]:
    """EXPERIMENTS.md's generated tables, by marker name."""
    lat = {m: _lat(r, m) for m in VERBS_MODES}
    bw = {m: {int(s): v for s, v in r["fig06_bandwidth"]["series"][m].items()}
          for m in VERBS_MODES}
    modes = ["size", "UD s/r", "UD WR-R", "RC s/r", "RC Write"]
    rd, rd_wr = r["fig07_rd_reliability"], r["fig08_rd_writerecord_reliability"]
    return {
        "summary": _table(
            ["#", "Paper claim (§VI)", "Paper", "Measured", "Verdict"],
            [[c.num, c.text, c.paper, measured(c, r), c.verdict]
             for c in CLAIMS if c.num.isdigit()]),
        "fig05": _table(modes, [[_size(s)] + [lat[m][s] for m in VERBS_MODES] for s in (
            64, 1024, 8192, 16384, 32768, 65536, 131072, 262144, 1048576)]),
        "fig06": _table(modes, [[_size(s)] + [bw[m][s] for m in VERBS_MODES]
                                for s in (1024, 16384, 65536, 262144, 524288, 1048576)]),
        "fig07": _loss_table(r, "fig07_loss_sendrecv"),
        "fig07_rd": _table(
            ["LLP", "MB/s", "rtx", "fast rtx", "timeouts", "backoffs"],
            [[label, d["mbs"], d["retransmissions"], d["fast_retransmits"], d["timeouts"],
              d["backoff_events"]]
             for label, d in (("adaptive", rd["adaptive"]), ("fixed 5 ms", rd["fixed_5ms"]))]),
        "fig08": _loss_table(r, "fig08_loss_writerecord"),
        "fig08_rd": _table(
            ["loss", "MB/s", "complete", "partial", "rtx", "fast rtx", "backoffs"],
            [[loss.replace("%", " %"), d["mbs"], d["received_msgs"], d["partial_msgs"],
              d["retransmissions"], d["fast_retransmits"], d["backoff_events"]]
             for loss, d in rd_wr.items()]),
        "ablations": _table(
            ["ablation", "result", "paper tie-in"],
            [[c.text, measured(c, r), c.paper] for c in CLAIMS if not c.num.isdigit()]),
    }


def render(text: str, r: Results) -> str:
    """``text`` with every marked table replaced by its render."""
    for name, table in render_tables(r).items():
        text, n = re.subn(rf"(<!-- begin {name} -->\n).*?(<!-- end {name} -->)",
                          lambda m, t=table: m.group(1) + t + "\n" + m.group(2), text,
                          flags=re.S)
        if n != 1:
            raise ValueError(f"EXPERIMENTS.md needs one '{name}' marker pair, found {n}")
    return text


def main() -> int:
    r = load_results()
    check(r=r)
    EXPERIMENTS_MD.write_text(render(EXPERIMENTS_MD.read_text(), r))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
