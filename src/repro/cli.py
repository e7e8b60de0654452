"""Command-line interface: ``python -m repro <experiment>``.

Every experiment of the evaluation (and a one-off pricing command) is
reachable from the shell, so the reproduction can be driven without
writing Python::

    python -m repro table1
    python -m repro table2 --options 200
    python -m repro saturation
    python -m repro ablation
    python -m repro accuracy --options 500
    python -m repro energy
    python -m repro usecase
    python -m repro portability
    python -m repro precision
    python -m repro clsource iv_b --steps 1024
    python -m repro price --spot 100 --strike 105 --type put
    python -m repro bench-engine --quick
    python -m repro bench-engine --quick --backend cnative
    python -m repro bench-engine --quick --out - | jq .config
    python -m repro bench-engine --trace-out trace.json --metrics-out m.prom
    python -m repro bench-greeks --quick
    python -m repro serve-bench --quick --fault-seed 101
    python -m repro obs --options 24 --steps 128
    python -m repro sweep run --spec steps-precision-quick --store sweep.jsonl
    python -m repro sweep status --store sweep.jsonl --fingerprint
    python -m repro sweep report --store sweep.jsonl --out frontier.json

The bench commands accept ``--out -`` to emit the benchmark document
as pure JSON on stdout (narration moves to stderr), so the output can
be piped straight into ``jq`` or a dashboard uploader.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

# mirrors repro.backends.BACKENDS plus the "auto" probe order; kept
# literal so building the parser stays import-light
_BACKEND_CHOICES = ("auto", "numpy", "cnative")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (bad values exit 2 with usage)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Energy-Efficient FPGA Implementation for "
                    "Binomial Option Pricing Using OpenCL' (DATE 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_all = sub.add_parser("all", help="run every experiment in sequence")
    p_all.add_argument("--options", type=int, default=100,
                       help="accuracy-batch size for the heavy experiments")

    p_report = sub.add_parser("report",
                              help="emit a full markdown reproduction report")
    p_report.add_argument("--options", type=int, default=100)

    sub.add_parser("table1", help="Table I: resource usage (E1)")

    p_table2 = sub.add_parser("table2", help="Table II: performances (E2)")
    p_table2.add_argument("--options", type=int, default=200,
                          help="accuracy-batch size (default 200)")

    sub.add_parser("saturation", help="device saturation sweep (E6)")
    sub.add_parser("ablation", help="kernel IV.A readback ablation (E7)")

    p_acc = sub.add_parser("accuracy", help="Power-operator accuracy (E8)")
    p_acc.add_argument("--options", type=int, default=500)

    sub.add_parser("energy", help="energy workarounds / 10 W budget (E9)")
    sub.add_parser("usecase", help="volatility-curve use case (E10)")
    sub.add_parser("portability", help="future-work portability study (E11)")
    sub.add_parser("precision", help="single-precision ablation (E12)")

    p_bench = sub.add_parser(
        "bench-engine",
        help="benchmark the batched pricing engine (writes BENCH_engine.json)")
    p_bench.add_argument("--options", type=int, nargs="+",
                         default=[1024, 4096],
                         help="batch sizes to measure (default: 1024 4096)")
    p_bench.add_argument("--steps", type=int, default=1024,
                         help="tree depth N (default 1024)")
    p_bench.add_argument("--workers", type=int, nargs="+", default=[1, 4],
                         help="engine worker settings (default: 1 4)")
    p_bench.add_argument("--kernel", choices=("iv_a", "iv_b"), default="iv_b")
    p_bench.add_argument("--backend", choices=_BACKEND_CHOICES,
                         default="numpy",
                         help="roll-loop backend for the engine runs "
                              "(default numpy; parity vs the NumPy path "
                              "is asserted in-run)")
    p_bench.add_argument("--out", default="BENCH_engine.json",
                         help="output JSON path (default BENCH_engine.json; "
                              "'-' writes pure JSON to stdout)")
    p_bench.add_argument("--quick", action="store_true",
                         help="small CI-sized run (256 options, N=256, "
                              "workers 1 2)")
    p_bench.add_argument("--check-against", default=None, metavar="JSON",
                         help="fail if throughput regressed >30%% vs this "
                              "stored benchmark file")
    p_bench.add_argument("--trace-out", default=None, metavar="JSON",
                         help="record every engine run as a span tree and "
                              "write the JSON trace document here")
    p_bench.add_argument("--metrics-out", default=None, metavar="PROM",
                         help="write the process-wide metrics registry in "
                              "Prometheus text format here")

    p_greeks = sub.add_parser(
        "bench-greeks",
        help="benchmark the batched greeks workload "
             "(writes BENCH_greeks.json)")
    p_greeks.add_argument("--options", type=int, nargs="+",
                          default=[256, 1024],
                          help="batch sizes to measure (default: 256 1024)")
    p_greeks.add_argument("--steps", type=int, default=256,
                          help="tree depth N (default 256)")
    p_greeks.add_argument("--workers", type=int, nargs="+", default=[1, 4],
                          help="engine worker settings (default: 1 4)")
    p_greeks.add_argument("--kernel", choices=("iv_a", "iv_b", "reference"),
                          default="iv_b")
    p_greeks.add_argument("--backend", choices=_BACKEND_CHOICES,
                          default="numpy",
                          help="roll-loop backend for the engine runs "
                               "(default numpy)")
    p_greeks.add_argument("--out", default="BENCH_greeks.json",
                          help="output JSON path (default BENCH_greeks.json; "
                               "'-' writes pure JSON to stdout)")
    p_greeks.add_argument("--quick", action="store_true",
                          help="small CI-sized run (64 options, N=64, "
                               "workers 1 2)")
    p_greeks.add_argument("--check-against", default=None, metavar="JSON",
                          help="fail if throughput regressed >30%% vs this "
                               "stored benchmark file")
    p_greeks.add_argument("--trace-out", default=None, metavar="JSON",
                          help="record every engine run as a span tree and "
                               "write the JSON trace document here")
    p_greeks.add_argument("--metrics-out", default=None, metavar="PROM",
                          help="write the process-wide metrics registry in "
                               "Prometheus text format here")

    p_serve = sub.add_parser(
        "serve-bench",
        help="closed-loop load benchmark of the pricing service "
             "(writes BENCH_service.json; --shards switches to the "
             "sharded network tier and writes BENCH_serve.json)")
    p_serve.add_argument("--options", type=int, nargs="+", default=[1024],
                         help="batch sizes to measure (default: 1024)")
    p_serve.add_argument("--steps", type=int, default=512,
                         help="tree depth N (default 512)")
    p_serve.add_argument("--clients", type=int, default=64,
                         help="closed-loop client threads (default 64)")
    p_serve.add_argument("--shards", type=int, nargs="+", default=None,
                         metavar="N",
                         help="network mode: boot a PricingServer per "
                              "shard count and measure aggregate HTTP "
                              "throughput, routed-parity and the "
                              "saturation ramp (e.g. --shards 1 2)")
    p_serve.add_argument("--requests", type=int, default=64,
                         help="network mode: cache-cold requests per "
                              "measured run (default 64)")
    p_serve.add_argument("--options-per-request", type=int, default=8,
                         help="network mode: options per request "
                              "(default 8)")
    p_serve.add_argument("--max-batch", type=int, default=None,
                         help="service flush threshold in options "
                              "(default: --clients)")
    p_serve.add_argument("--kernel", choices=("iv_a", "iv_b", "reference"),
                         default="iv_b")
    p_serve.add_argument("--fault-seed", type=int, default=None,
                         help="inject FaultPlan.random(seed) transient "
                              "faults into every engine (must heal; parity "
                              "stays bitwise)")
    p_serve.add_argument("--backend", choices=_BACKEND_CHOICES,
                         default="numpy",
                         help="roll-loop backend for the direct engine and "
                              "every request (default numpy)")
    p_serve.add_argument("--out", default="BENCH_service.json",
                         help="output JSON path (default BENCH_service.json; "
                              "'-' writes pure JSON to stdout)")
    p_serve.add_argument("--quick", action="store_true",
                         help="small CI-sized run (256 options, N=256, "
                              "32 clients)")
    p_serve.add_argument("--check-against", default=None, metavar="JSON",
                         help="fail if throughput regressed >30%% vs this "
                              "stored benchmark file")
    p_serve.add_argument("--trace-out", default=None, metavar="JSON",
                         help="record service enqueue/flush spans (plus the "
                              "engine runs under them) and write the JSON "
                              "trace document here")
    p_serve.add_argument("--metrics-out", default=None, metavar="PROM",
                         help="write the process-wide metrics registry in "
                              "Prometheus text format here")

    p_stream = sub.add_parser(
        "stream-bench",
        help="streaming risk benchmark: tick-to-risk latency and "
             "revaluations/s over a ticking position book "
             "(writes BENCH_stream.json)")
    p_stream.add_argument("--instruments", type=int, nargs="+",
                          default=[256],
                          help="position-book sizes to sweep "
                               "(default: 256)")
    p_stream.add_argument("--tick-steps", type=int, default=64,
                          help="synthetic-market time steps (default 64)")
    p_stream.add_argument("--steps", type=int, default=256,
                          help="tree depth N per instrument (default 256)")
    p_stream.add_argument("--batch-ticks", type=int, default=8,
                          help="revalue after this many materialised "
                               "ticks (default 8)")
    p_stream.add_argument("--max-batch", type=int, default=None,
                          help="service flush threshold in options "
                               "(default: the instrument count)")
    p_stream.add_argument("--kernel", choices=("iv_a", "iv_b", "reference"),
                          default="iv_b")
    p_stream.add_argument("--backend", choices=_BACKEND_CHOICES,
                          default="numpy",
                          help="roll-loop backend for every revaluation "
                               "(default numpy)")
    p_stream.add_argument("--rel-tol", type=float, default=2e-3,
                          help="relative tolerance of the gated phase "
                               "(default 2e-3)")
    p_stream.add_argument("--fault-seeds", type=int, nargs="*",
                          default=[101, 202, 303], metavar="SEED",
                          help="fault seeds the aggregate stream must "
                               "hold bitwise parity under "
                               "(default: 101 202 303)")
    p_stream.add_argument("--out", default="BENCH_stream.json",
                          help="output JSON path (default BENCH_stream.json; "
                               "'-' writes pure JSON to stdout)")
    p_stream.add_argument("--quick", action="store_true",
                          help="small CI-sized run (32 instruments, "
                               "24 tick steps, N=64)")
    p_stream.add_argument("--check-against", default=None, metavar="JSON",
                          help="fail if throughput regressed >30%% vs this "
                               "stored benchmark file")
    p_stream.add_argument("--trace-out", default=None, metavar="JSON",
                          help="record the calm run's service spans and "
                               "write the JSON trace document here")
    p_stream.add_argument("--metrics-out", default=None, metavar="PROM",
                          help="write the process-wide metrics registry in "
                               "Prometheus text format here")

    p_run = sub.add_parser(
        "serve",
        help="run the sharded pricing server (HTTP/JSON wire API "
             "repro-serve/v1 on localhost; Ctrl-C to stop)")
    p_run.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    p_run.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = pick a free one and "
                            "print it)")
    p_run.add_argument("--shards", type=int, default=2,
                       help="shard worker processes (default 2)")
    p_run.add_argument("--max-batch", type=int, default=256,
                       help="per-shard coalescing flush threshold "
                            "(default 256)")
    p_run.add_argument("--fault-seed", type=int, default=None,
                       help="inject FaultPlan.random(seed) transient "
                            "faults into every shard engine (testing)")

    p_obs = sub.add_parser(
        "obs",
        help="observability demo: trace a chunked device session end to end")
    p_obs.add_argument("--options", type=int, default=24,
                       help="batch size to price (default 24)")
    p_obs.add_argument("--steps", type=int, default=128,
                       help="tree depth N / work-group size (default 128)")
    p_obs.add_argument("--chunk", type=int, default=8,
                       help="options per scheduled chunk (default 8)")
    p_obs.add_argument("--trace-out", default=None, metavar="JSON",
                       help="write the JSON trace document here")
    p_obs.add_argument("--metrics-out", default=None, metavar="PROM",
                       help="write the metrics registry (Prometheus text) "
                            "here")

    p_cl = sub.add_parser("clsource", help="emit the OpenCL C of a kernel")
    p_cl.add_argument("kernel", choices=("iv_a", "iv_b"))
    p_cl.add_argument("--steps", type=int, default=1024)
    p_cl.add_argument("--precision", choices=("dp", "sp"), default="dp")

    p_sweep = sub.add_parser(
        "sweep",
        help="resumable scenario sweeps: run a declarative experiment "
             "grid through the pricing service, resume it after a "
             "crash, report the accuracy/throughput/energy frontier")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    for verb, verb_help in (
            ("run", "execute a sweep grid (skips already-committed cells)"),
            ("resume", "alias of run: execute exactly the not-done cells")):
        p_verb = sweep_sub.add_parser(verb, help=verb_help)
        p_verb.add_argument("--spec", required=True, metavar="NAME|JSON",
                            help="builtin study name (e.g. steps-precision, "
                                 "steps-precision-quick) or a "
                                 "repro-sweep-spec/v1 JSON file")
        p_verb.add_argument("--store", required=True, metavar="JSONL",
                            help="append-only run-store file (created on "
                                 "first run, resumed afterwards)")
        p_verb.add_argument("--limit", type=int, default=None,
                            help="execute at most this many cells, then "
                                 "stop (the store stays resumable)")
        p_verb.add_argument("--workers", type=_positive_int, default=None,
                            help="engine pricing threads for the shared "
                                 "service (default: inline, one thread)")
    p_sw_status = sweep_sub.add_parser(
        "status", help="summarise a run store without executing anything")
    p_sw_status.add_argument("--store", required=True, metavar="JSONL")
    p_sw_status.add_argument("--fingerprint", action="store_true",
                             help="print only the store's canonical "
                                  "fingerprint (the bitwise-resume "
                                  "contract; shell-comparable)")
    p_sw_report = sweep_sub.add_parser(
        "report", help="emit the frontier report from a run store "
                       "(pure read; never re-executes a condition)")
    p_sw_report.add_argument("--store", required=True, metavar="JSONL")
    p_sw_report.add_argument("--out", default=None, metavar="JSON",
                             help="write the repro-sweep-frontier/v1 "
                                  "document here ('-' = pure JSON on "
                                  "stdout, table moves to stderr)")

    p_price = sub.add_parser("price", help="price one option on a platform")
    p_price.add_argument("--spot", type=float, required=True)
    p_price.add_argument("--strike", type=float, required=True)
    p_price.add_argument("--rate", type=float, default=0.03)
    p_price.add_argument("--vol", type=float, default=0.25)
    p_price.add_argument("--maturity", type=float, default=1.0)
    p_price.add_argument("--type", dest="option_type",
                         choices=("call", "put"), default="put")
    p_price.add_argument("--exercise", choices=("american", "european"),
                         default="american")
    p_price.add_argument("--platform", choices=("fpga", "gpu", "cpu"),
                         default="fpga")
    p_price.add_argument("--steps", type=int, default=1024)

    return parser


def _load_sweep_spec(name_or_path: str):
    """Resolve ``--spec``: builtin study name or a spec JSON file."""
    from .sweep import SweepSpec
    from .sweep.studies import BUILTIN_SPECS, builtin_spec

    if name_or_path in BUILTIN_SPECS:
        return builtin_spec(name_or_path)
    import json

    from .errors import SweepError

    try:
        with open(name_or_path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise SweepError(
            f"--spec {name_or_path!r} is neither a builtin study "
            f"({', '.join(sorted(BUILTIN_SPECS))}) nor a readable file")
    except json.JSONDecodeError as exc:
        raise SweepError(f"{name_or_path}: not valid JSON ({exc})")
    return SweepSpec.from_dict(document)


def _run_sweep(args) -> int:
    from .errors import SweepError
    from .sweep import RunStore, SweepRunner, frontier_report, render_frontier

    try:
        if args.sweep_command in ("run", "resume"):
            spec = _load_sweep_spec(args.spec)
            service_config = None
            if args.workers is not None:
                from .engine import EngineConfig
                from .service import ServiceConfig
                service_config = ServiceConfig(
                    engine_config=EngineConfig(workers=args.workers))
            runner = SweepRunner(spec, args.store,
                                 service_config=service_config)
            stats = runner.run(limit=args.limit)
            counts = runner.status()
            print(f"sweep {spec.name!r} (spec {spec.fingerprint()}): "
                  f"{stats.cells} cells, {stats.pruned} pruned, "
                  f"{stats.skipped} already committed")
            print(f"  executed {stats.executed} "
                  f"({stats.done} done, {stats.failed} failed, "
                  f"{stats.options} options, "
                  f"mean {stats.mean_cell_s * 1e3:.1f} ms/cell)")
            remaining = counts["pending"] + counts["running"]
            if remaining:
                print(f"  {remaining} cells remaining — "
                      f"resume with: repro sweep resume "
                      f"--spec {args.spec} --store {args.store}")
            else:
                print(f"  grid complete; store fingerprint "
                      f"{runner.store.fingerprint()}")
            return 0
        if args.sweep_command == "status":
            store = RunStore(args.store)
            if args.fingerprint:
                print(store.fingerprint())
                return 0
            counts = store.counts()
            total = sum(counts.values())
            print(f"{args.store}: {total} cells "
                  f"(spec {store.spec_fingerprint()})")
            for status, count in counts.items():
                print(f"  {status:8} {count}")
            print(f"  fingerprint {store.fingerprint()}")
            return 0
        if args.sweep_command == "report":
            store = RunStore(args.store)
            document = frontier_report(store)
            _, echo = _bench_streams(args.out or "")
            if args.out:
                path = _emit_document(document, args.out)
                echo(f"frontier document -> {path}")
            echo(render_frontier(document))
            return 0
    except SweepError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


def _run_price(args) -> str:
    from .api import price
    from .core import BinomialAccelerator
    from .finance import ExerciseStyle, Option, OptionType, price_binomial

    option = Option(
        spot=args.spot, strike=args.strike, rate=args.rate,
        volatility=args.vol, maturity=args.maturity,
        option_type=OptionType(args.option_type),
        exercise=ExerciseStyle(args.exercise),
    )
    kernel = "reference" if args.platform == "cpu" else "iv_b"
    accelerator = BinomialAccelerator(platform=args.platform, kernel=kernel,
                                      steps=args.steps)
    result = price([option], steps=args.steps, device=accelerator).modeled
    reference = price_binomial(option, args.steps).price
    lines = [
        f"configuration : {accelerator.describe()}",
        f"price         : {result.prices[0]:.6f}",
        f"reference     : {reference:.6f} "
        f"(error {result.prices[0] - reference:+.2e})",
        f"modeled rate  : {result.estimate.options_per_second:,.0f} options/s "
        f"at {result.estimate.power_w:.1f} W "
        f"({result.estimate.options_per_joule:.1f} options/J)",
    ]
    return "\n".join(lines)


def _bench_streams(out: str):
    """Output plumbing shared by the bench commands.

    ``--out -`` flips a bench command into machine-readable mode: the
    benchmark document becomes the *only* bytes on stdout and every
    narration line moves to stderr, so the output parses as JSON.
    Returns ``(json_to_stdout, echo)``.
    """
    import functools

    if out == "-":
        return True, functools.partial(print, file=sys.stderr)
    return False, print


def _emit_document(document: dict, out: str) -> str:
    """Write the document to ``out`` (``-`` = stdout); returns label."""
    if out == "-":
        import json

        print(json.dumps(document, indent=2))
        return "<stdout>"
    from .bench.gate import write_benchmark

    return str(write_benchmark(document, out))


def _run_bench_engine(args) -> int:
    from .bench.engine_bench import run_benchmark
    from .bench.gate import check_throughput_regression, load_benchmark

    if args.quick:
        options_counts, steps, workers = [256], 256, [1, 2]
    else:
        options_counts, steps, workers = args.options, args.steps, args.workers
    _, echo = _bench_streams(args.out)

    tracer = None
    if args.trace_out:
        from .obs import Tracer
        tracer = Tracer()

    document = run_benchmark(
        options_counts=options_counts, steps=steps,
        workers_settings=workers, kernel=args.kernel,
        backend=args.backend, tracer=tracer,
    )
    path = _emit_document(document, args.out)

    if tracer is not None:
        from .obs.export import write_trace
        trace_path = write_trace(tracer, args.trace_out)
        echo(f"trace ({len(tracer.roots)} engine runs) -> {trace_path}")
    if args.metrics_out:
        from .obs import get_registry
        from .obs.export import write_metrics
        metrics_path = write_metrics(get_registry(), args.metrics_out)
        echo(f"metrics -> {metrics_path}")

    echo(f"engine benchmark (kernel {args.kernel}, "
         f"backend {args.backend}, N={steps}) -> {path}")
    for entry in document["results"]:
        base = entry["baseline"]
        echo(f"  {entry['options']} options: baseline "
             f"{base['options_per_second']:,.1f} options/s")
        for run in entry["runs"]:
            compile_note = (
                f", compile {run['backend_compile_seconds']:.2f}s"
                if run.get("backend_compile_seconds") else "")
            echo(f"    workers={run['workers']} "
                 f"backend={run['backend']}: "
                 f"{run['options_per_second']:,.1f} options/s "
                 f"({run['speedup_vs_baseline']:.2f}x baseline, "
                 f"{run['chunks']} chunks{compile_note})")
            reliability = {
                name: run[name]
                for name in ("retries", "timeouts", "quarantined_options")
                if run.get(name)
            }
            if reliability:
                detail = ", ".join(f"{name}={count}"
                                   for name, count in reliability.items())
                echo(f"      reliability: {detail}")

    if args.check_against:
        stored = load_benchmark(args.check_against)
        failures = check_throughput_regression(document, stored)
        for failure in failures:
            echo(f"REGRESSION: {failure}")
        if failures:
            return 1
        echo(f"no throughput regression vs {args.check_against}")
    return 0


def _run_bench_greeks(args) -> int:
    from .bench.gate import check_throughput_regression, load_benchmark
    from .bench.greeks_bench import run_greeks_benchmark

    if args.quick:
        options_counts, steps, workers = [64], 64, [1, 2]
    else:
        options_counts, steps, workers = args.options, args.steps, args.workers
    _, echo = _bench_streams(args.out)

    tracer = None
    if args.trace_out:
        from .obs import Tracer
        tracer = Tracer()

    document = run_greeks_benchmark(
        options_counts=options_counts, steps=steps,
        workers_settings=workers, kernel=args.kernel,
        backend=args.backend, tracer=tracer,
    )
    path = _emit_document(document, args.out)

    if tracer is not None:
        from .obs.export import write_trace
        trace_path = write_trace(tracer, args.trace_out)
        echo(f"trace ({len(tracer.roots)} engine runs) -> {trace_path}")
    if args.metrics_out:
        from .obs import get_registry
        from .obs.export import write_metrics
        metrics_path = write_metrics(get_registry(), args.metrics_out)
        echo(f"metrics -> {metrics_path}")

    echo(f"greeks benchmark (kernel {args.kernel}, "
         f"backend {args.backend}, N={steps}) -> {path}")
    for entry in document["results"]:
        base = entry["baseline"]
        worst = max(entry["parity"]["max_abs_diff"].values())
        echo(f"  {entry['options']} options: scalar oracle "
             f"{base['options_per_second']:,.1f} options/s "
             f"(worst greek diff {worst:.2e})")
        for run in entry["runs"]:
            echo(f"    workers={run['workers']}: "
                 f"{run['options_per_second'] / 5:,.1f} options/s "
                 f"({run['speedup_vs_baseline']:.2f}x scalar, "
                 f"{run['bump_passes']} bump passes, "
                 f"{run['chunks']} chunks)")

    if args.check_against:
        stored = load_benchmark(args.check_against)
        failures = check_throughput_regression(document, stored)
        for failure in failures:
            echo(f"REGRESSION: {failure}")
        if failures:
            return 1
        echo(f"no throughput regression vs {args.check_against}")
    return 0


def _run_serve(args) -> int:
    """``repro serve``: run the sharded server until interrupted."""
    import signal
    import threading

    from .engine.faults import FaultPlan
    from .serve import PricingServer, ServeConfig
    from .service import ServiceConfig

    faults = (FaultPlan.random(args.fault_seed, 64)
              if args.fault_seed is not None else None)
    config = ServeConfig(
        host=args.host, port=args.port, shards=args.shards,
        service=ServiceConfig(max_batch=args.max_batch, faults=faults),
    )
    server = PricingServer(config).start()
    stop = threading.Event()

    def _interrupt(_signum, _frame):
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _interrupt)
    print(f"serving on http://{server.host}:{server.port} "
          f"({args.shards} shards, wire schema repro-serve/v1)",
          flush=True)
    print("endpoints: POST /v1/price, GET /healthz, GET /stats "
          "-- Ctrl-C to stop", flush=True)
    try:
        while not stop.wait(timeout=1.0):
            pass
    except KeyboardInterrupt:
        pass
    stats = server.stop()
    print(f"served {stats.requests} requests "
          f"({stats.options} options, {stats.errors} errors, "
          f"{stats.shard_restarts} shard restarts)")
    return 0


def _run_serve_network_bench(args) -> int:
    """``repro serve-bench --shards``: the sharded network tier."""
    from .bench.gate import check_throughput_regression, load_benchmark
    from .bench.service_bench import run_serve_benchmark

    if args.quick:
        requests_total, per_request, steps, clients = 32, 8, 128, 8
    else:
        requests_total, per_request, steps, clients = (
            args.requests, args.options_per_request, args.steps,
            args.clients)
    out = "BENCH_serve.json" if args.out == "BENCH_service.json" else args.out
    _, echo = _bench_streams(out)

    tracer = None
    if args.trace_out:
        from .obs import Tracer
        tracer = Tracer()

    document = run_serve_benchmark(
        requests_total=requests_total, options_per_request=per_request,
        steps=steps, shard_counts=tuple(args.shards), clients=clients,
        fault_seed=args.fault_seed, backend=args.backend, tracer=tracer,
    )
    path = _emit_document(document, out)

    if tracer is not None:
        from .obs.export import write_trace
        trace_path = write_trace(tracer, args.trace_out)
        echo(f"trace ({len(tracer.roots)} serve requests) -> {trace_path}")
    if args.metrics_out:
        from .obs import get_registry
        from .obs.export import write_metrics
        metrics_path = write_metrics(get_registry(), args.metrics_out)
        echo(f"metrics -> {metrics_path}")

    fault_note = (f", fault seed {args.fault_seed}"
                  if args.fault_seed is not None else "")
    echo(f"serve benchmark (network, backend {args.backend}, N={steps}, "
         f"{requests_total} requests x {per_request} options, "
         f"{clients} clients{fault_note}) -> {path}")
    entry = document["results"][0]
    for run in entry["runs"]:
        echo(f"  shards={run['workers']}: "
             f"{run['options_per_second']:,.1f} options/s "
             f"({run['requests_per_second']:,.1f} req/s, "
             f"{run['speedup_vs_one_shard']:.2f}x one shard, "
             f"{run['efficiency_vs_linear']:.0%} of linear)")
        latency = run["latency"]
        echo(f"    latency: p50 {latency['p50_ms']:.2f} ms, "
             f"p99 {latency['p99_ms']:.2f} ms over "
             f"{latency['count']} requests")
    scaling = entry["scaling"]
    if scaling["two_shard_speedup"] is not None:
        state = "asserted" if scaling["asserted"] else \
            "recorded only (single-CPU host)"
        echo(f"  scaling: 2 shards = {scaling['two_shard_speedup']:.2f}x "
             f"one shard ({state}, floor "
             f"{scaling['min_two_shard_speedup']:.1f}x)")
    saturation = entry["saturation"]
    if saturation is not None:
        point = saturation["saturation_offered_rps"]
        if point is not None:
            echo(f"  saturation: loss crosses "
                 f"{saturation['loss_threshold']:.0%} at "
                 f"~{point:,.0f} offered req/s")
        else:
            top = saturation["levels"][-1]
            echo(f"  saturation: no loss up to "
                 f"{top['offered_rps']:,.0f} offered req/s "
                 f"(p99 {top['latency']['p99_ms']:.1f} ms)"
                 if "latency" in top else
                 f"  saturation: no loss up to "
                 f"{top['offered_rps']:,.0f} offered req/s")

    if args.check_against:
        stored = load_benchmark(args.check_against)
        failures = check_throughput_regression(document, stored)
        for failure in failures:
            echo(f"REGRESSION: {failure}")
        if failures:
            return 1
        echo(f"no throughput regression vs {args.check_against}")
    return 0


def _run_serve_bench(args) -> int:
    from .bench.gate import check_throughput_regression, load_benchmark
    from .bench.service_bench import run_service_benchmark

    if args.shards:
        return _run_serve_network_bench(args)
    if args.quick:
        options_counts, steps, clients = [256], 256, 32
    else:
        options_counts, steps, clients = args.options, args.steps, args.clients
    _, echo = _bench_streams(args.out)

    tracer = None
    if args.trace_out:
        from .obs import Tracer
        tracer = Tracer()

    document = run_service_benchmark(
        options_counts=options_counts, steps=steps, kernel=args.kernel,
        clients=clients, max_batch=args.max_batch,
        fault_seed=args.fault_seed, backend=args.backend, tracer=tracer,
    )
    path = _emit_document(document, args.out)

    if tracer is not None:
        from .obs.export import write_trace
        trace_path = write_trace(tracer, args.trace_out)
        echo(f"trace ({len(tracer.roots)} root spans) -> {trace_path}")
    if args.metrics_out:
        from .obs import get_registry
        from .obs.export import write_metrics
        metrics_path = write_metrics(get_registry(), args.metrics_out)
        echo(f"metrics -> {metrics_path}")

    fault_note = (f", fault seed {args.fault_seed}"
                  if args.fault_seed is not None else "")
    echo(f"service benchmark (kernel {args.kernel}, "
         f"backend {args.backend}, N={steps}, "
         f"{clients} clients{fault_note}) -> {path}")
    for entry in document["results"]:
        base = entry["baseline"]
        echo(f"  {entry['options']} options: direct engine "
             f"{base['options_per_second']:,.1f} options/s")
        for run in entry["runs"]:
            service = run["service"]
            echo(f"    coalesced: {run['options_per_second']:,.1f} "
                 f"options/s ({run['efficiency_vs_direct']:.0%} of direct, "
                 f"{service['flushes']} flushes, mean "
                 f"{service['mean_flush_options']:.1f} options/flush)")
            echo(f"    cache: cold {run['cache_cold_s'] * 1e3:.1f} ms, "
                 f"hit {run['cache_hit_s'] * 1e3:.3f} ms "
                 f"({run['cache_speedup']:.0f}x)")
            latency = run["latency"]
            echo(f"    latency: p50 {latency['p50_ms']:.2f} ms, "
                 f"p99 {latency['p99_ms']:.2f} ms over "
                 f"{latency['count']} requests")
        overload = entry["overload"]
        saturation = overload["saturation_offered_rps"]
        if saturation is not None:
            echo(f"    overload: sheds/rejects cross "
                 f"{overload['loss_threshold']:.0%} at "
                 f"~{saturation:,.0f} offered req/s")
        else:
            top = overload["levels"][-1]
            echo(f"    overload: no saturation up to "
                 f"{top['offered_rps']:,.0f} offered req/s "
                 f"(loss {top['loss_rate']:.1%})")

    if args.check_against:
        stored = load_benchmark(args.check_against)
        failures = check_throughput_regression(document, stored)
        for failure in failures:
            echo(f"REGRESSION: {failure}")
        if failures:
            return 1
        echo(f"no throughput regression vs {args.check_against}")
    return 0


def _run_stream_bench(args) -> int:
    from .bench.gate import check_throughput_regression, load_benchmark
    from .bench.stream_bench import run_stream_benchmark

    if args.quick:
        instruments, tick_steps, steps = [32], 24, 64
    else:
        instruments, tick_steps, steps = (args.instruments, args.tick_steps,
                                          args.steps)
    _, echo = _bench_streams(args.out)

    tracer = None
    if args.trace_out:
        from .obs import Tracer
        tracer = Tracer()

    document = run_stream_benchmark(
        instrument_counts=instruments, tick_steps=tick_steps, steps=steps,
        kernel=args.kernel, batch_ticks=args.batch_ticks,
        max_batch=args.max_batch, fault_seeds=args.fault_seeds,
        backend=args.backend, rel_tol=args.rel_tol, tracer=tracer,
    )
    path = _emit_document(document, args.out)

    if tracer is not None:
        from .obs.export import write_trace
        trace_path = write_trace(tracer, args.trace_out)
        echo(f"trace ({len(tracer.roots)} root spans) -> {trace_path}")
    if args.metrics_out:
        from .obs import get_registry
        from .obs.export import write_metrics
        metrics_path = write_metrics(get_registry(), args.metrics_out)
        echo(f"metrics -> {metrics_path}")

    echo(f"stream benchmark (kernel {args.kernel}, backend {args.backend}, "
         f"N={steps}, {tick_steps} tick steps, "
         f"batch {args.batch_ticks} ticks) -> {path}")
    for entry in document["results"]:
        parity = entry["parity"]
        echo(f"  {entry['options']} instruments: {entry['ticks']} ticks, "
             f"{entry['aggregates']} aggregates")
        for run in entry["runs"]:
            latency = run["latency"]
            echo(f"    {run['options_per_second']:,.1f} revaluations/s, "
                 f"{run['ticks_per_second']:,.1f} ticks/s "
                 f"over {run['wall_time_s']:.2f} s")
            echo(f"    tick-to-risk: p50 {latency['p50_ms']:.2f} ms, "
                 f"p99 {latency['p99_ms']:.2f} ms, "
                 f"p99.9 {latency['p999_ms']:.2f} ms over "
                 f"{latency['count']} ticks")
        echo(f"    parity: bitwise vs oracle "
             f"({parity['oracle_checks']} checks), replay, "
             f"fault seeds {parity['fault_seeds']}")
        tolerance = entry["tolerance"]
        echo(f"    tolerance rel_tol={tolerance['rel_tol']:g}: "
             f"{tolerance['suppressed_ticks']} ticks suppressed "
             f"({tolerance['suppression_rate']:.0%}), "
             f"{tolerance['revaluations_saved']} revaluations saved")

    if args.check_against:
        stored = load_benchmark(args.check_against)
        failures = check_throughput_regression(document, stored)
        for failure in failures:
            echo(f"REGRESSION: {failure}")
        if failures:
            return 1
        echo(f"no throughput regression vs {args.check_against}")
    return 0


def _run_obs(args) -> int:
    """Observability demo: one chunked device session, fully traced.

    Prices a batch through the kernel IV.B host program (Figure 4's
    three host commands per chunk) on the modeled DE4, recording the
    full five-level hierarchy — run -> group -> chunk -> attempt ->
    queue-command — then prints the span tree, the simulated DMA/kernel
    lane timeline, and the metric families the session produced.
    """
    from .core.host_b import HostProgramB
    from .devices import fpga_device
    from .finance import generate_batch
    from .obs import Tracer, get_registry
    from .obs.export import (
        render_queue_timeline,
        render_span_tree,
        write_metrics,
        write_trace,
    )

    batch = list(generate_batch(n_options=args.options, seed=20140324).options)
    program = HostProgramB(fpga_device("iv_b"), steps=args.steps)

    tracer = Tracer()
    run_span = tracer.start_span(
        "obs.device-session", "run",
        program="host_b", device=program.device.name,
        options=len(batch), steps=args.steps,
    )
    group_span = run_span.child(
        f"group[steps={args.steps}]", "group",
        steps=args.steps, options=len(batch),
    )
    for lo in range(0, len(batch), max(1, args.chunk)):
        chunk = batch[lo:lo + max(1, args.chunk)]
        chunk_span = group_span.child(
            f"chunk[{lo}+{len(chunk)}]", "chunk",
            first_index=lo, options=len(chunk), steps=args.steps,
        )
        attempt_span = chunk_span.child("attempt-0", "attempt",
                                        attempt=0, mode="device")
        program.queue.attach_span(attempt_span)
        try:
            run = program.price(chunk)
        finally:
            program.queue.detach_span()
        attempt_span.set(
            simulated_time_s=run.simulated_time_s,
            bytes_read=run.bytes_read, bytes_written=run.bytes_written,
        ).end()
        chunk_span.end()
    group_span.end()
    run_span.end()

    root = tracer.as_dicts()[0]
    print(render_span_tree(root))
    print()
    print(render_queue_timeline([root]))
    print()
    registry = get_registry()
    for name in registry.names():
        metric = registry.get(name)
        for sample_name, label_key, value in metric.sorted_samples():
            labels = ",".join(f"{k}={v}" for k, v in label_key)
            print(f"{sample_name}{'{' + labels + '}' if labels else ''} "
                  f"= {value:g}")

    if args.trace_out:
        print(f"\ntrace -> {write_trace(tracer, args.trace_out)}")
    if args.metrics_out:
        print(f"metrics -> {write_metrics(registry, args.metrics_out)}")
    return 0


def _run_clsource(args) -> str:
    from .core.clsource import kernel_a_source, kernel_b_source
    from .hls import KERNEL_A_OPTIONS, KERNEL_B_OPTIONS

    if args.kernel == "iv_b":
        return kernel_b_source(args.steps, KERNEL_B_OPTIONS, args.precision)
    return kernel_a_source(KERNEL_A_OPTIONS, args.precision)


def _run_all(accuracy_options: int) -> int:
    """Regenerate every experiment, in DESIGN.md order."""
    from .bench import (
        accuracy_experiment,
        readback_ablation,
        saturation_sweep,
        table1,
        table2,
        volatility_curve_usecase,
    )
    from .bench.experiments import (
        energy_workarounds,
        portability_study,
        precision_ablation,
    )

    stages = (
        ("E1  Table I", lambda: table1().rendered),
        ("E2  Table II", lambda: table2(accuracy_options=accuracy_options).rendered),
        ("E6  saturation", lambda: saturation_sweep().rendered),
        ("E7  readback ablation", lambda: readback_ablation().rendered),
        ("E8  pow accuracy",
         lambda: accuracy_experiment(n_options=accuracy_options).rendered),
        ("E9  energy workarounds", lambda: energy_workarounds().rendered),
        ("E10 volatility-curve use case",
         lambda: volatility_curve_usecase().rendered),
        ("E11 portability (future work)",
         lambda: portability_study().rendered),
        ("E12 precision ablation",
         lambda: precision_ablation(accuracy_options=accuracy_options).rendered),
    )
    for title, run in stages:
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
        print(run())
    print("\n(E3-E5 are functional dataflow checks: run "
          "`pytest benchmarks/test_fig*` to execute them.)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # downstream pager/head closed the pipe: exit quietly like any
        # well-behaved unix filter
        return 0


def _dispatch(args) -> int:

    if args.command == "all":
        return _run_all(args.options)
    if args.command == "report":
        from .bench.report import generate_report
        print(generate_report(accuracy_options=args.options))
        return 0
    if args.command == "table1":
        from .bench import table1
        print(table1().rendered)
    elif args.command == "table2":
        from .bench import table2
        print(table2(accuracy_options=args.options).rendered)
    elif args.command == "saturation":
        from .bench import saturation_sweep
        print(saturation_sweep().rendered)
    elif args.command == "ablation":
        from .bench import readback_ablation
        print(readback_ablation().rendered)
    elif args.command == "accuracy":
        from .bench import accuracy_experiment
        print(accuracy_experiment(n_options=args.options).rendered)
    elif args.command == "energy":
        from .bench.experiments import energy_workarounds
        print(energy_workarounds().rendered)
    elif args.command == "usecase":
        from .bench import volatility_curve_usecase
        print(volatility_curve_usecase().rendered)
    elif args.command == "portability":
        from .bench.experiments import portability_study
        print(portability_study().rendered)
    elif args.command == "precision":
        from .bench.experiments import precision_ablation
        print(precision_ablation().rendered)
    elif args.command == "bench-engine":
        return _run_bench_engine(args)
    elif args.command == "bench-greeks":
        return _run_bench_greeks(args)
    elif args.command == "serve-bench":
        return _run_serve_bench(args)
    elif args.command == "stream-bench":
        return _run_stream_bench(args)
    elif args.command == "sweep":
        return _run_sweep(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "obs":
        return _run_obs(args)
    elif args.command == "clsource":
        print(_run_clsource(args))
    elif args.command == "price":
        print(_run_price(args))
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
