"""Command-line entry point: regenerate the paper's experiments.

    python -m repro describe                # model/machine inventory
    python -m repro table3|table4|fig3|...|fig8|granularity|memory
                                            # one section of suite `paper`
    python -m repro analyze [...]           # dependence proof + metrics + AST lint
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
import os
import sys

from repro.harness.paper import format_results, run_paper_suite
from repro.harness.tables import TABLE_CONFIGS
from repro.models.spec import BRNNSpec
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
    """The graph ``analyze`` checks, built from every structural flag:
    cost-only, or functional (for ``--observe``/``--fuzz-seeds``) on seeded
    inputs and freshly initialised parameters, so every call starts from
    bit-identical state."""
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


def _cmd_analyze(args) -> int:
    """The dependence proof, parallelism metrics and AST lint.

    The graph half builds the named graph once — cost-only (graph
    structure is independent of hidden size, so even paper-scale configs
    check in under a minute), functional with ``--observe`` or
    ``--fuzz-seeds`` — and writes one ``graph_analysis`` report: the
    findings of :func:`~repro.analysis.verify.verify_build` (plus, with
    ``--observe``, the observed-versus-declared diff of one serial run),
    the parallelism metrics, and with ``--fuzz-seeds N`` whether N fuzzed
    schedules reproduce the FIFO bits.  ``--lint [PATH]`` adds the AST
    pass over the source tree; ``--skip-graph`` drops the graph half.
    ``--verify [SCOPE]`` proves the config-family matrix and emits the
    ``repro.cert.v1`` certificate as a ``verify`` report
    (``--verify-output``; ``bench --check`` gates it).  Exit 1 on any
    finding, fuzz divergence, or a certificate that is not ``ok``; exit 2
    when the ``--lint`` path is neither a file nor a directory.
    """
    from repro.analysis.parallelism import parallelism_metrics
    from repro.analysis.pylint import lint_paths
    from repro.analysis.verify import verify_build
    from repro.harness.ledger import make_report, write_report
    from repro.runtime.racecheck import check_build, fuzz_equivalence_sweep

    if args.lint and not (os.path.isfile(args.lint) or os.path.isdir(args.lint)):
        print(f"usage: analyze --lint PATH: no file or directory {args.lint!r}",
              file=sys.stderr)
        return 2

    failed = False
    results = {}
    config = {
        **{key: getattr(args, key) for key in (
            "cell", "input_size", "hidden", "layers", "seq_len", "batch", "mbs", "head",
            "serialize_chunks", "fused_input_projection", "proj_block",
            "wavefront_tile", "observe", "fuzz_seeds")},
        "training": not args.infer,
        "barrier_free": not args.barriers,
        "lint_paths": [args.lint] if args.lint else [],
    }

    if not args.skip_graph:
        functional = args.observe or bool(args.fuzz_seeds)
        built = _checked_graph(args, functional)
        report = verify_build(built)
        if args.observe:
            check_build(built, report)
        print(report.summary())
        for f in report.findings:
            print("  " + f.describe())
        metrics = parallelism_metrics(built.graph)
        print(
            f"parallelism: width {int(metrics['width'])}, span "
            f"{int(metrics['span_tasks'])} tasks, avg ∥ {metrics['avg_parallelism']:.2f}, "
            f"serialization debt {metrics['serialization_debt']:.3f}"
        )
        failed |= not report.ok
        results["dependences"] = report.to_dict()
        results["parallelism"] = {"metrics": metrics}
        if args.fuzz_seeds:
            sweep = fuzz_equivalence_sweep(
                lambda: _checked_graph(args, True), range(args.fuzz_seeds), n_workers=2
            )
            print(sweep.summary())
            failed |= not sweep.ok
            results["fuzz"] = sweep.to_dict()

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
        from repro.analysis.verify import (
            MUTATION_KINDS, build_certificate, full_family_matrix,
        )

        families = full_family_matrix()
        if args.verify == "smoke":
            # eight tile/projection/pairing modes per cell/head/pass: a
            # stride of seven walks across them, a 14-family diagonal
            families = families[::7]
        cert = build_certificate(families)
        cross = cert["cross_validation"]
        detected = sum(cert["mutations"][kind]["exact_pair"] for kind in MUTATION_KINDS)
        print(
            f"verify: {cert['n_certified']}/{cert['n_families']} families "
            f"certified, {detected}/{len(MUTATION_KINDS)} mutation kinds named, "
            f"{cross['samples']}/{cert['n_instances']} certified instances observed, "
            f"{'zero findings' if cross['ok'] else 'FINDINGS'}"
        )
        for entry in cert["families"]:
            if not entry["ok"]:
                print(f"  UNCERTIFIED {entry['label']}")
                for f in entry["findings"][:4]:
                    print(f"    {f['kind']}: {f['task']} {f['region']} {f['detail']}")
        if args.verify_output:
            write_report(args.verify_output, make_report(
                "verify",
                {"families": args.verify},
                cert,
                "record" if args.verify == "full" else "smoke",
            ))
            print(f"# certificate written to {args.verify_output}", file=sys.stderr)
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
    "bench": _cmd_bench,
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


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("checked-graph options")
    g.add_argument("--seq-len", type=int, default=100,
                   help="sequence length of the analysed/checked batch")
    g.add_argument("--batch", type=int, default=32,
                   help="batch size of the analysed/checked batch")
    g.add_argument("--head", choices=("many_to_one", "many_to_many"),
                   default="many_to_one")
    g.add_argument("--infer", action="store_true",
                   help="check a forward-only (inference) graph")
    g.add_argument("--barriers", action="store_true",
                   help="check the per-layer-barrier (framework) graph variant")
    g.add_argument("--serialize-chunks", action="store_true",
                   help="check the B-Seq (chunk-serialised) graph variant")
    g.add_argument("--mbs", type=int, default=4,
                   help="data-parallel chunks per batch (hybrid parallelism)")
    g.add_argument("--seed", type=int, default=0,
                   help="inputs and parameters of a functional (--observe, "
                        "--fuzz-seeds) build")
    g.add_argument("--fused-input-projection", choices=("on", "off", "auto"),
                   default="auto",
                   help="leave only the recurrent GEMM on the cell chain: "
                        "every layer | none | where the weight panel "
                        "outgrows the cache (docs/PERF.md)")
    g.add_argument("--proj-block", type=int, default=None,
                   help="timesteps per hoisted projection task (default 16)")
    g.add_argument("--wavefront-tile", type=int, default=None,
                   help="timesteps per cell-chain task (default: per step; "
                        "clamped to T)")


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


def _add_analyze_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("analyze options")
    g.add_argument("--lint", nargs="?", const="src/repro", default=None,
                   metavar="PATH",
                   help="run the AST lint over PATH (default src/repro)")
    g.add_argument("--skip-graph", action="store_true",
                   help="skip the graph half (AST lint / certificate only)")
    g.add_argument("--observe", action="store_true",
                   help="also run the graph's payloads once under access "
                        "observation and diff them against the declarations")
    g.add_argument("--fuzz-seeds", type=int, default=0,
                   help="fuzz N schedule seeds; results must be bitwise-identical to FIFO")
    g.add_argument("--verify", nargs="?", const="full", default=None,
                   choices=("full", "smoke"), metavar="SCOPE",
                   help="prove the config-family matrix (SCOPE 'full', the "
                        "default, or 'smoke', a 14-family diagonal); exit 1 "
                        "unless every family certifies, every mutation is "
                        "detected and every proved instance runs clean under "
                        "access observation")
    g.add_argument("--verify-output", type=str, default=None, metavar="PATH",
                   help="write the repro.cert.v1 certificate to PATH as a "
                        "`verify` report (gate it with `bench --check`)")


#: the flag groups each command reads; a command without a row takes none
_GROUPS = {
    "bench": (_add_bench_args,),
    "analyze": (_add_model_args, _add_graph_args, _add_analyze_args),
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
