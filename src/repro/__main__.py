"""Command-line entry point: regenerate the paper's experiments.

    python -m repro describe                # model/machine inventory
    python -m repro table3|table4|fig3|...|fig8|granularity|memory
                                            # one section of suite `paper`
    python -m repro serve-bench [...]       # online-serving benchmark (JSON)
    python -m repro racecheck [...]         # dependency-declaration race check
    python -m repro analyze [...]           # static graph lint + AST lint
    python -m repro bench SUITE [--record]  # run one gated suite (JSON + bars)
    python -m repro bench --check REPORT... # gate written reports

The paper's tables and figures are sections of suite ``paper``
(:mod:`repro.harness.paper`): a section command measures its section at
the smoke grid and prints it through the suite's formatter; ``bench paper``
measures every section and holds it to the ledger's bars (68 s on the
recording 2-vCPU host), ``--record`` at the paper's complete grids
(18 min there, rewriting ``benchmarks/baselines/BENCH_paper.json``).
A flag a command does not read is a usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import add_execution_args, config_from_args
from repro.harness.paper import format_results, run_paper_suite
from repro.harness.tables import TABLE_CONFIGS
from repro.models.spec import BRNNSpec
from repro.serve.config import add_serve_args
from repro.simarch.presets import tesla_v100, xeon_8160_2s


def _cmd_describe(args) -> None:
    machine = xeon_8160_2s()
    gpu = tesla_v100()
    print(f"simulated CPU : {machine.name} — {machine.n_cores} cores "
          f"({machine.n_sockets}x{machine.cores_per_socket}) @ {machine.freq_ghz} GHz, "
          f"L2 {machine.l2_bytes >> 10} KiB/core, L3 {machine.l3_bytes >> 20} MiB/socket")
    print(f"simulated GPU : {gpu.name} — {gpu.peak_gflops / 1000:.1f} Tflop/s fp32 peak")
    print("\nTable III/IV model configurations (6-layer, many-to-one):")
    for inp, hid, batch, seq in TABLE_CONFIGS:
        spec = BRNNSpec(cell="lstm", input_size=inp, hidden_size=hid,
                        num_layers=6, merge_mode="sum", num_classes=11)
        print(f"  in={inp:5d} hidden={hid:5d} batch={batch:4d} seq={seq:4d} "
              f"-> {spec.num_parameters() / 1e6:6.1f}M parameters")


def _cmd_section(args) -> None:
    """One section of suite ``paper`` at the smoke grid, as ``bench paper``
    measures and prints it."""
    print(format_results(run_paper_suite("smoke", [args.command])["results"]))


def _cmd_serve_bench(args) -> None:
    """Serve a synthetic request stream and emit the JSON SLO report."""
    import json
    from dataclasses import asdict

    from repro.harness.ledger import make_report, write_report
    from repro.obs import MetricsRegistry
    from repro.serve import InferenceEngine, Server, make_workload
    from repro.serve.config import serve_config_from_args, workload_config_from_args

    spec = BRNNSpec(
        cell=args.cell,
        input_size=args.input_size,
        hidden_size=args.hidden,
        num_layers=args.layers,
        merge_mode="sum",
        num_classes=11,
    )
    serve_cfg = serve_config_from_args(args)
    workload_cfg = workload_config_from_args(
        args,
        seq_len_range=(args.seq_min, args.seq_max),
        features=spec.input_size if args.executor in ("threaded", "process") else None,
    )
    requests = make_workload(args.workload, workload_cfg, seed=args.seed)
    engine = InferenceEngine(
        spec,
        config=config_from_args(args, metrics=MetricsRegistry()),
        serve_config=serve_cfg,
    )
    stats = Server(engine, serve_cfg).run(requests)
    report = make_report(
        "serving",
        {
            "model": spec.describe(),
            "executor": args.executor,
            "scheduler": args.scheduler,
            "workers": engine.n_workers,
            "workload": args.workload,
            "arrival_rate_hz": args.arrival_rate,
            "duration_s": args.duration,
            "seq_len_range": [args.seq_min, args.seq_max],
            "mbs": args.mbs,
            "seed": args.seed,
            "fused_input_projection": engine.fused_input_projection,
            "proj_block": args.proj_block,
            "serve": asdict(serve_cfg),
            "serve_fingerprint": serve_cfg.fingerprint(),
        },
        stats.summary(),
    )
    print(json.dumps(report, indent=2))
    if args.output:
        write_report(args.output, report)
        print(f"# report written to {args.output}", file=sys.stderr)


def _cmd_bench(args) -> int:
    """Run one gated suite, or gate written reports (``--check``).

    ``bench SUITE`` measures the suite at its smoke size (``--record``:
    the paper-scale size, written to its baseline file — when every bar
    holds — unless ``--output`` says otherwise), prints the JSON report
    (and, for a suite with a text form, that to stderr), and exits 1 when
    any bar of :mod:`repro.harness.ledger` fails.  ``bench --check
    REPORT...`` gates files instead; the suite and the scope are read from
    each report.
    """
    import json

    from repro.harness import ledger

    if args.check:
        if args.suite or args.record or args.output:
            print("usage: bench --check REPORT...", file=sys.stderr)
            return 2
        return ledger.check_files(args.check)
    runnable = sorted(n for n, s in ledger.SUITES.items() if s.measure is not None)
    suite = args.suite
    if suite not in runnable:
        print(f"usage: bench {{{','.join(runnable)}}} [--record] [--output PATH]",
              file=sys.stderr)
        return 2
    report = ledger.run_suite(suite, "record" if args.record else "smoke")
    print(json.dumps(report, indent=2))
    render = ledger.SUITES[suite].render
    if render is not None:
        print(render(report["results"]), file=sys.stderr)
    notices: list = []
    errors = ledger.check_report(report, suite, notices)
    for notice in notices:
        print(notice, file=sys.stderr)
    # a failing record never replaces the committed baseline
    record_path = ledger.baseline_path(suite) if args.record and not errors else None
    path = args.output or record_path
    if path:
        ledger.write_report(path, report)
        print(f"# report written to {path}", file=sys.stderr)
    return ledger.finish(errors, [])


def _checked_graph(args, functional: bool):
    """The graph ``analyze`` and ``racecheck`` check, built from every
    structural flag: cost-only for ``analyze``; for ``racecheck`` functional,
    on seeded inputs and freshly initialised parameters, so every call
    starts from bit-identical state."""
    import numpy as np

    from repro.core.graph_builder import build_brnn_graph
    from repro.models.params import BRNNParams

    spec = BRNNSpec(
        cell=args.cell,
        input_size=args.input_size,
        hidden_size=args.hidden,
        num_layers=args.layers,
        merge_mode="sum",
        head=args.head,
        num_classes=11,
    )
    training = not args.infer
    structure = dict(
        mbs=args.mbs,
        training=training,
        barrier_free=not args.barriers,
        serialize_chunks=args.serialize_chunks,
        fused_input_projection=args.fused_input_projection,
        proj_block=args.proj_block,
        fusion=args.fusion,
        wavefront_tile=args.wavefront_tile,
    )
    if not functional:
        return build_brnn_graph(spec, seq_len=args.seq_len, batch=args.batch, **structure)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.seq_len, args.batch, spec.input_size)).astype(spec.dtype)
    shape = args.batch if spec.head == "many_to_one" else (args.seq_len, args.batch)
    labels = rng.integers(0, spec.num_classes, size=shape)
    return build_brnn_graph(
        spec,
        x=x,
        labels=labels if training else None,
        params=BRNNParams.initialize(spec, seed=args.seed + 1),
        lr=0.05,
        **structure,
    )


def _cmd_racecheck(args) -> int:
    """Race-check a built graph: observation + ordering + fuzz + mutation.

    Model size comes from the shared flags (--hidden/--layers/--seq-len/
    --batch); the dynamic observation pass executes one full batch
    serially, so prefer small models (the smoke configuration is
    ``--hidden 16 --layers 2 --seq-len 6 --batch 8``).
    """
    import json

    from repro.runtime.racecheck import (
        check_build,
        fuzz_equivalence_sweep,
        mutation_probe,
        record_schedule,
        replay_schedule,
    )
    from repro.runtime.scheduler import ScheduleRecord

    def build():
        return _checked_graph(args, functional=True)

    failed = False
    report = check_build(build())
    print(report.summary())
    for f in report.findings:
        print("  " + f.describe())
    failed |= not report.ok

    if args.mutations:
        graph = build().graph
        for seed in range(args.mutations):
            probe = mutation_probe(graph, seed=seed)
            status = "detected" if probe["detected"] else "MISSED"
            print(f"mutation seed {seed}: dropped {probe['edge_names'][0]} -> "
                  f"{probe['edge_names'][1]} (region {probe['region']}) ... {status}")
            failed |= not probe["detected"]

    if args.fuzz_seeds:
        sweep = fuzz_equivalence_sweep(build, range(args.fuzz_seeds), n_workers=2)
        print(sweep.summary())
        failed |= not sweep.ok

    if args.record_schedule:
        record, _ = record_schedule(build().graph, scheduler=f"fuzz:{args.seed}")
        record.save(args.record_schedule)
        print(f"# schedule ({len(record.order)} tasks) written to {args.record_schedule}")
    if args.replay_schedule:
        record = ScheduleRecord.load(args.replay_schedule)
        trace = replay_schedule(build().graph, record)
        match = trace.execution_order() == record.order
        print(f"replaying schedule of {len(record.order)} tasks: "
              f"{'order reproduced' if match else 'ORDER DIVERGED'}")
        failed |= not match

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"# report written to {args.output}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    """Static analysis: graph lint, parallelism metrics, and AST lint.

    The graph half runs on a *cost-only* build (graph structure is
    independent of hidden size, so even paper-scale configs lint in
    seconds); ``--lint [PATH]`` adds the AST pass over the source tree;
    ``--skip-graph`` makes it lint-only.  ``--verify [SCOPE]`` runs the
    symbolic dependence verifier over the config-family matrix and
    emits the ``repro.cert.v1`` certificate as a ``verify`` report
    (``--verify-output``; ``bench --check`` gates it); ``--strict`` makes
    an incomplete certificate exit nonzero.  Exit 1 on any graph/AST
    finding.
    """
    from repro.analysis.graphlint import lint_graph
    from repro.analysis.parallelism import analyze_graph
    from repro.analysis.pylint import lint_paths
    from repro.harness.ledger import make_report, write_report

    failed = False
    results = {}
    config = {
        **{key: getattr(args, key) for key in (
            "cell", "input_size", "hidden", "layers", "seq_len", "batch", "mbs", "head",
            "serialize_chunks", "fused_input_projection", "proj_block", "fusion",
            "wavefront_tile")},
        "training": not args.infer,
        "barrier_free": not args.barriers,
        "lint_paths": [args.lint] if args.lint else [],
    }

    if not args.skip_graph:
        built = _checked_graph(args, functional=False)
        glint = lint_graph(built.graph)
        print(glint.summary())
        for f in glint.findings:
            print("  " + f.describe())
        par = analyze_graph(built.graph)
        print(par.summary())
        for f in par.findings:
            print("  " + f.describe())
        failed |= not (glint.ok and par.ok)
        results["graphlint"] = glint.to_dict()
        results["parallelism"] = par.to_dict()

    if args.lint:
        findings = lint_paths([args.lint])
        status = "clean" if not findings else f"{len(findings)} findings"
        print(f"pylint: {args.lint} {status}")
        for f in findings:
            print("  " + f.describe())
        failed |= bool(findings)
        results["pylint"] = {
            "ok": not findings,
            "n_findings": len(findings),
            "findings": [f.to_dict() for f in findings],
        }

    if args.verify:
        from repro.analysis.verify import build_certificate, full_family_matrix

        families = full_family_matrix()
        if args.verify == "smoke":
            # six kernel/tile/projection modes per cell/head/pass: a stride
            # of seven walks across them, an 11-family diagonal
            families = families[::7]
        cert = build_certificate(families, samples=args.verify_samples)
        cross = cert["cross_validation"]
        print(
            f"verify: {cert['n_certified']}/{cert['n_families']} families "
            f"certified, mutations "
            f"{'all detected' if cert['mutations']['all_detected'] else 'MISSED'}, "
            f"cross-validation {cross['samples']} configs "
            f"{'clean' if cross['ok'] else 'FINDINGS'}"
        )
        for entry in cert["families"]:
            if not entry["ok"]:
                print(f"  UNCERTIFIED {entry['label']}")
                for f in entry["findings"][:4]:
                    print(f"    {f['kind']}: {f['task']} {f['region']} {f['detail']}")
        if args.verify_output:
            write_report(args.verify_output, make_report(
                "verify",
                {"families": args.verify, "samples": args.verify_samples},
                cert,
                "record" if args.verify == "full" else "smoke",
            ))
            print(f"# certificate written to {args.verify_output}", file=sys.stderr)
        if args.strict:
            failed |= not cert["ok"]

    if args.output:
        write_report(args.output, make_report("graph_analysis", config, results))
        print(f"# report written to {args.output}", file=sys.stderr)
    return 1 if failed else 0


PAPER_COMMANDS = ("table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7",
                  "fig8", "granularity", "memory")

COMMANDS = {
    "describe": _cmd_describe,
    **{name: _cmd_section for name in PAPER_COMMANDS},
    "serve-bench": _cmd_serve_bench,
    "bench": _cmd_bench,
    "racecheck": _cmd_racecheck,
    "analyze": _cmd_analyze,
}


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("model and report options")
    g.add_argument("--cell", choices=("lstm", "gru"), default="lstm")
    g.add_argument("--hidden", type=int, default=256)
    g.add_argument("--layers", type=int, default=6)
    g.add_argument("--input-size", type=int, default=64)
    g.add_argument("--output", type=str, default=None,
                   help="also write the JSON report to this path")


def _add_serve_bench_args(parser: argparse.ArgumentParser) -> None:
    # serving knobs (queue/batcher/admission) live in the shared "serving
    # options" group (repro.serve.config.add_serve_args)
    g = parser.add_argument_group("request length options")
    g.add_argument("--seq-min", type=int, default=40)
    g.add_argument("--seq-max", type=int, default=100)


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("checked-graph options (racecheck, analyze)")
    g.add_argument("--seq-len", type=int, default=100,
                   help="sequence length of the analysed/checked batch")
    g.add_argument("--batch", type=int, default=32,
                   help="batch size of the analysed/checked batch")
    g.add_argument("--head", choices=("many_to_one", "many_to_many"),
                   default="many_to_one")
    g.add_argument("--infer", action="store_true",
                   help="check a forward-only (inference) graph")
    g.add_argument("--barriers", action="store_true",
                   help="analyze/racecheck the per-layer-barrier (framework) graph variant")
    g.add_argument("--serialize-chunks", action="store_true",
                   help="analyze/racecheck the B-Seq (chunk-serialised) graph variant")


def _add_bench_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("bench options")
    g.add_argument("suite", nargs="?", default=None, help="the suite to run")
    g.add_argument("--record", action="store_true",
                   help="run the suite's paper-scale size and write its "
                        "benchmarks/baselines/BENCH_<suite>.json")
    g.add_argument("--check", nargs="+", default=None, metavar="REPORT",
                   help="gate written reports against the ledger's bars "
                        "instead of running a suite")
    g.add_argument("--output", type=str, default=None,
                   help="write the JSON report to this path")


def _add_racecheck_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("racecheck options")
    g.add_argument("--mutations", type=int, default=0,
                   help="run N seeded dependence-deletion probes (each must be detected)")
    g.add_argument("--fuzz-seeds", type=int, default=0,
                   help="fuzz N schedule seeds; results must be bitwise-identical to FIFO")
    g.add_argument("--record-schedule", type=str, default=None,
                   help="record one fuzzed schedule to this JSON path")
    g.add_argument("--replay-schedule", type=str, default=None,
                   help="replay a recorded schedule JSON against a fresh build")


def _add_analyze_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("analyze options")
    g.add_argument("--lint", nargs="?", const="src/repro", default=None,
                   metavar="PATH",
                   help="run the AST lint over PATH (default src/repro)")
    g.add_argument("--skip-graph", action="store_true",
                   help="skip the graph build/lint half (AST lint only)")
    g.add_argument("--verify", nargs="?", const="full", default=None,
                   choices=("full", "smoke"), metavar="SCOPE",
                   help="run the symbolic dependence verifier: SCOPE 'full' "
                        "(default) certifies the whole family matrix, "
                        "'smoke' an 11-family diagonal")
    g.add_argument("--verify-samples", type=int, default=8,
                   help="concrete configs the certificate cross-validates "
                        "against the dynamic race checker (default 8)")
    g.add_argument("--verify-output", type=str, default=None, metavar="PATH",
                   help="write the repro.cert.v1 certificate to PATH as a "
                        "`verify` report (gate it with `bench --check`)")
    g.add_argument("--strict", action="store_true",
                   help="with --verify: exit nonzero unless every family "
                        "certifies, every mutation is detected, and "
                        "cross-validation is clean")


#: the flag groups each command reads; a command without a row takes none
_GROUPS = {
    "serve-bench": (add_execution_args, add_serve_args, _add_model_args,
                    _add_serve_bench_args),
    "bench": (_add_bench_args,),
    "racecheck": (add_execution_args, _add_model_args, _add_graph_args,
                  _add_racecheck_args),
    "analyze": (add_execution_args, _add_model_args, _add_graph_args,
                _add_analyze_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures on the simulated machine.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        sub = commands.add_parser(name)
        for add_group in _GROUPS.get(name, ()):
            add_group(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return int(COMMANDS[args.command](args) or 0)


if __name__ == "__main__":
    sys.exit(main())
