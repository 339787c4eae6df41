"""Self-test of the tracer's thread-aware span accounting.

Run standalone with ``python3 perfbench/selftest.py``; every traced run of
the benchmark runs it too and fails its correctness flag if it fails.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from tracer import Tracer, union_length, wrap


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-12


def synthetic() -> list[str]:
    """Two pool threads under one parent, with overlapping intervals.

    Thread 0 opens cli.main [0, 10] and cli.cmd_manifold [1, 9]. Threads 1
    and 2 start with empty stacks and open fock.evolve [2, 6] and [3, 8];
    thread 1 also opens network.unitarity_residual [2.5, 3.5] inside its
    evolve. The children of cmd_manifold overlap, so its self time is
    8 - |[2, 8]| = 2, where subtracting their summed lengths would give -1.
    """
    tr = Tracer(clock=lambda: 0.0)
    s0, s1, s2 = [], [], []
    main = tr.open("cli.main", s0, 0, 0.0)
    cmd = tr.open("cli.cmd_manifold", s0, 0, 1.0)
    ev1 = tr.open("fock.evolve", s1, 1, 2.0)
    ur = tr.open("network.unitarity_residual", s1, 1, 2.5)
    ev2 = tr.open("fock.evolve", s2, 2, 3.0)
    problems = []
    if ev1.parent is not cmd or ev2.parent is not cmd or ur.parent is not ev1:
        problems.append("pool-thread spans are not parented to the causing span")
    tr.close(ur, s1, 3.5)
    tr.close(ev1, s1, 6.0)
    tr.close(ev2, s2, 8.0)
    tr.close(cmd, s0, 9.0)
    tr.close(main, s0, 10.0)
    want = {"cli.main": 2.0, "cli.cmd_manifold": 2.0, "fock.evolve": 8.0,
            "network.unitarity_residual": 1.0}
    for name, value in want.items():
        if not _close(tr.self_s[name], value):
            problems.append(f"{name} self time {tr.self_s[name]} != {value}")
    if tr.calls["fock.evolve"] != 2 or len(tr.threads) != 3:
        problems.append(f"calls {dict(tr.calls)}, threads {tr.threads}")
    layers = tr.layer_self_s()
    if not (_close(layers["cli"], 4.0) and _close(layers["fock"], 8.0)):
        problems.append(f"layer self times {layers}")
    if not _close(union_length([(0, 2), (1, 3), (5, 6), (-1, 0.5)], 0, 5.5), 3.5):
        problems.append("union_length of overlapping, clipped intervals")
    if s0 or s1 or s2:
        problems.append("span stacks not empty after closing every span")
    return problems


def threaded() -> list[str]:
    """Real pool threads: both workers must be children of the open span."""
    tr = Tracer()
    barrier = threading.Barrier(2, timeout=5.0)

    def work(_):
        barrier.wait()
        time.sleep(0.05)

    traced_work = wrap(tr, "fock.work", work)
    t0 = time.perf_counter()
    span, stack = tr.begin("cli.main")
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(traced_work, range(2)))
    tr.end(span, stack)
    duration = time.perf_counter() - t0
    problems = []
    if tr.calls["fock.work"] != 2 or len(tr.threads) != 3:
        problems.append(f"threaded: calls {dict(tr.calls)}, threads {len(tr.threads)}")
    own = tr.self_s["cli.main"]
    if not 0.0 <= own <= duration - 0.05:
        problems.append(f"threaded: main self time {own} outside [0, {duration - 0.05}]")
    return problems


def run() -> list[str]:
    return synthetic() + threaded()


if __name__ == "__main__":
    found = run()
    for msg in found:
        print(f"FAIL {msg}")
    print("tracer self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
