#!/usr/bin/env python
"""SIP load test: response time and memory scalability (Figs. 10-11).

Runs a SIPp-like workload against the SIP server over both transports:

* sequential calls under light load → mean request/response time;
* a ramp of concurrent held calls → server memory high-water mark,
  compared with the closed-form footprint model.

Run:  python examples/sip_loadtest.py
"""

from repro.apps.sip.workload import (
    measure_memory, measure_response_time,
)
from repro.memory.accounting import FootprintModel


def main() -> None:
    print("Response time (light load, 12 calls each):")
    ud = measure_response_time("ud", calls=12)
    rc = measure_response_time("rc", calls=12)
    print(f"  UD: {ud['mean_ms']:.3f} ms    RC: {rc['mean_ms']:.3f} ms    "
          f"improvement {100 * (1 - ud['mean_ms'] / rc['mean_ms']):.1f}%  "
          f"(paper: claim 17 in EXPERIMENTS.md)")

    print("\nMemory with concurrent held calls (live measurement):")
    model = FootprintModel()
    for n in (50, 200, 500):
        rc_mem = measure_memory("rc", n)["high_water_bytes"]
        ud_mem = measure_memory("ud", n)["high_water_bytes"]
        imp = 100 * (rc_mem - ud_mem) / rc_mem
        print(f"  {n:5d} calls: RC {rc_mem/1024:8.1f} KiB  UD {ud_mem/1024:8.1f} KiB"
              f"  improvement {imp:5.2f}%  (model: {model.improvement_percent(n):5.2f}%)")

    print("\nClosed-form curve toward the paper's 10 000-call point:")
    for n in (100, 1000, 10_000, 100_000):
        print(f"  {n:7d} calls -> {model.improvement_percent(n):5.2f}%")
    print(f"  socket-size-only bound: {model.socket_only_improvement_percent():.2f}% "
          f"(paper: claims 18-19 in EXPERIMENTS.md)")


if __name__ == "__main__":
    main()
