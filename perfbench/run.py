#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with every second operation traced and reports the
per-layer metrics instead (see ``perfbench/README.md``).  A readable
report goes to standard error; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout; build outputs
(the compiled kernel cache, span files) go to ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5


def _arguments(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _environment() -> None:
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no program source at {SOURCE}/repro; run from the "
            f"root of a full source checkout")
    # The compiled kernel's on-disk cache and any temporary files live
    # inside the checkout.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    paths = [SOURCE, HERE] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, SOURCE)


def _setup_probe(args) -> int:
    """Child mode: set the workload up, say so, wait for EOF, tear down."""
    from workloads import make_workload

    workload = make_workload(args.workload)
    try:
        workload.setup(args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        sys.stdin.read()
    finally:
        workload.close()
    return 0


def _time_setups(args) -> "list[float]":
    """Wall time from process launch to ready, in fresh processes."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        begin = time.perf_counter()
        child = subprocess.Popen(command, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - begin
            child.stdin.close()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise SystemExit(f"error: set-up child exited with {code}")
        samples.append(elapsed)
    return samples


def _cpu_seconds() -> float:
    """CPU of this process and every descendant, live or reaped.

    Reaped descendants are in ``RUSAGE_CHILDREN`` (or their live
    parent's ``cutime``); live ones are read from ``/proc``.
    """
    import resource

    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    parents, ticks = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
        ticks[int(entry)] = sum(int(value) for value in fields[11:15])
    mine = {os.getpid()}
    grew = True
    while grew:
        found = {pid for pid, parent in parents.items()
                 if parent in mine and pid not in mine}
        grew = bool(found)
        mine |= found
    mine.discard(os.getpid())
    return total + sum(ticks[pid] for pid in mine) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb() -> float:
    import resource

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _declared_metrics(kind: str) -> "list[dict]":
    """The metrics ``BENCHMARK.json`` declares, in declaration order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _harness_layer(out, cpu_s: float) -> dict:
    from stats import summarize

    late = summarize(out.samples["loadgen.late"])
    traced = summarize(out.op_seconds[True])["p50"]
    plain = summarize(out.op_seconds[False])["p50"]
    return {
        "host.cpu_s_per_1k_options": (cpu_s / out.options_priced * 1e3, "s"),
        "loadgen.late_ms_tail": (
            (late["p50"] if late["tail"] is None else late["tail"]) * 1e3,
            "ms"),
        "trace.overhead_pct": ((traced / plain - 1.0) * 100.0, "%"),
    }


def _report(args, backend, out, metrics, setups, spans) -> None:
    from stats import summarize
    from spans import self_times

    import numpy

    write = sys.stderr.write
    write(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}\n")
    write(f"host nproc={os.cpu_count()} backend={backend} "
          f"git={_git_revision()} python={platform.python_version()} "
          f"numpy={numpy.__version__}\n")
    write(f"operations attempted={out.attempted} failed={out.failed} "
          f"problems={len(out.problems)}\n")
    for line in out.errors + out.problems[:10]:
        write(f"  ! {line}\n")
    counts = {"setup_s": len(setups),
              "latency_p50_ms": len(out.samples.get("latency", ()))}
    write(f"{'metric':36} {'value':>14} {'unit':8} samples\n")
    for name, entry in metrics.items():
        count = counts.get(name, "-")
        write(f"{name:36} {entry['value']:14.6g} {entry['unit']:8} "
              f"{count}\n")
    write("timings (ms): name count p50 tail\n")
    for name, samples in sorted(out.samples.items()):
        summary = summarize(samples)
        tail = ("-" if summary["tail"] is None else
                f"p{summary['tail_pct']:g}={summary['tail'] * 1e3:.4g}")
        write(f"  {name:30} {summary['count']:6d} "
              f"p50={summary['p50'] * 1e3:.4g} {tail}\n")
    if spans:
        write("self time per layer (traced ops): name count total_ms "
              "self_ms self_ms_per_span\n")
        for name, entry in sorted(self_times(spans).items()):
            write(f"  {name:24} {entry['count']:6d} "
                  f"{entry['total_s'] * 1e3:10.2f} "
                  f"{entry['self_s'] * 1e3:10.2f} "
                  f"{entry['self_s'] / entry['count'] * 1e3:10.4f}\n")


def main(argv=None) -> int:
    args = _arguments(argv)
    _environment()
    if args.setup_probe:
        return _setup_probe(args)

    import probes
    from spans import SpanRecorder
    from workloads import Outcome, make_workload, require_compiled_backend

    require_compiled_backend()
    setups = [] if args.trace else _time_setups(args)
    workload = make_workload(args.workload)
    out = Outcome()
    recorder = SpanRecorder(tracing=bool(args.trace))
    try:
        workload.setup(args.seed)
        workload.make_load(args.seed, args.seconds)
        cpu_before = _cpu_seconds()
        workload.run(out, args.seconds, recorder)
        cpu_s = _cpu_seconds() - cpu_before
    finally:
        workload.close()
    peak_rss_mb = _peak_rss_mb()
    workload.check(out)

    if args.trace:
        layer = dict(out.layer)
        layer.update(workload.layer_from_spans(recorder.spans))
        layer.update(_harness_layer(out, cpu_s))
        probes.fill_missing(layer, args.seed)
        values = layer
        recorder.write(os.path.join(
            BUILD, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        import statistics

        values = dict(out.end_to_end)
        values["setup_s"] = (statistics.median(setups), "s")
        values["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics = {}
    for entry in _declared_metrics("per_layer" if args.trace
                                   else "end_to_end"):
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"error: {entry['name']} measured in {unit}, "
                             f"declared in {entry['unit']}")
        metrics[entry["name"]] = {"value": float(value), "unit": unit}
    _report(args, workload.backend, out, metrics, setups, recorder.spans)
    print(json.dumps({"correct": not out.problems,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
