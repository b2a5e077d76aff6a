"""Command-line entry point: regenerate the paper's experiments.

    python -m repro describe                # model/machine inventory
    python -m repro table3 [--full]         # Table III (BLSTM)
    python -m repro table4 [--full]         # Table IV (BGRU)
    python -m repro fig3|fig4|fig5|fig6|fig7|fig8
    python -m repro granularity|memory
    python -m repro serve-bench [...]       # online-serving benchmark (JSON)
    python -m repro racecheck [...]         # dependency-declaration race check
    python -m repro analyze [...]           # static graph lint + AST lint
    python -m repro bench SUITE [--record]  # run one gated suite (JSON + bars)
    python -m repro bench --check REPORT... # gate written reports

``--full`` runs the paper's complete configuration grids (minutes); the
default grids cover every regime in seconds.  The same drivers back the
pytest-benchmark suite in ``benchmarks/``, which additionally asserts each
experiment's shape criteria.

Execution flags (``--executor``, ``--cores``, ``--scheduler``, ``--mbs``,
``--seed``, ``--fused-input-projection``, ``--proj-block``) are shared by
every command through :func:`repro.config.add_execution_args`.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import format_table
from repro.config import add_execution_args, config_from_args
from repro.harness import figures
from repro.harness.tables import HEADERS, TABLE_CONFIGS, TABLE_CONFIGS_SMOKE, run_table
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


def _cmd_table(cell: str, title: str, args) -> None:
    configs = TABLE_CONFIGS if args.full else TABLE_CONFIGS_SMOKE
    rows = run_table(cell, configs)
    print(format_table(HEADERS, [r.as_list() for r in rows], title=title))


def _cmd_fig3(args) -> None:
    series = figures.fig3_minibatch_scaling()
    cores = figures.CORE_COUNTS
    print(format_table(
        ["mbs"] + [f"{c}c" for c in cores],
        [[f"mbs:{m}"] + [round(v, 2) for v in series[m]] for m in sorted(series)],
        title="Fig. 3: B-Par speed-up vs mbs:1 @ 1 core",
    ))


def _cmd_fig4(args) -> None:
    s = figures.fig4_core_scaling()
    print(format_table(
        ["engine"] + [f"{c}c" for c in s.core_counts],
        [
            ["Keras"] + [round(v, 3) for v in s.keras],
            ["B-Seq"] + [round(v, 3) for v in s.bseq],
            ["PyTorch"] + [round(v, 3) for v in s.pytorch],
            ["B-Par"] + [round(v, 3) for v in s.bpar],
        ],
        title="Fig. 4: batch time (s) vs cores",
    ))


def _cmd_fig5(args) -> None:
    rows = figures.fig5_hidden_batch()
    print(format_table(
        ["L", "hidden", "batch", "Keras", "PyTorch", "B-Seq", "B-Par", "K/BP"],
        [[r["layers"], r["hidden"], r["batch"], round(r["keras"], 3),
          round(r["pytorch"], 3), round(r["bseq"], 3), round(r["bpar"], 3),
          round(r["keras"] / r["bpar"], 2)] for r in rows],
        title="Fig. 5: batch/hidden sweep (s)",
    ))


def _cmd_fig6(args) -> None:
    rows = figures.fig6_layers()
    print(format_table(
        ["L", "K train", "BPar train", "K infer", "BPar infer"],
        [[r["layers"], round(r["keras_train"], 3), round(r["bpar_train"], 3),
          round(r["keras_infer"], 3), round(r["bpar_infer"], 3)] for r in rows],
        title="Fig. 6: layer sweep (s)",
    ))


def _cmd_fig7(args) -> None:
    study = figures.fig7_locality(mbs=2)
    print(f"locality-aware {study.time_aware_s:.3f}s vs oblivious "
          f"{study.time_oblivious_s:.3f}s -> {100 * study.improvement:.1f}% faster")
    print(format_table(
        ["IPC band", "aware %", "oblivious %"],
        [[lab, round(100 * fa, 1), round(100 * fo, 1)]
         for (lab, fa), (_, fo) in zip(study.ipc_aware.rows(), study.ipc_oblivious.rows())],
    ))
    print(format_table(
        ["MPKI band", "aware %", "oblivious %"],
        [[lab, round(100 * fa, 1), round(100 * fo, 1)]
         for (lab, fa), (_, fo) in zip(study.mpki_aware.rows(), study.mpki_oblivious.rows())],
    ))


def _cmd_fig8(args) -> None:
    rows = figures.fig8_next_char()
    print(format_table(
        ["L", "hidden", "batch", "Keras s", "B-Par s", "speed-up"],
        [[r["layers"], r["hidden"], r["batch"], round(r["keras"], 3),
          round(r["bpar"], 3), round(r["speedup"], 2)] for r in rows],
        title="Fig. 8: next-char m2m",
    ))


def _cmd_granularity(args) -> None:
    stats, per_epoch = figures.granularity_study()
    for label, value in stats.rows():
        print(f"{label:24s} {value}")
    print(f"{'tasks per epoch':24s} {per_epoch}  (paper: 368,240)")


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
    holds — unless ``--output`` says otherwise), prints the JSON report,
    and exits 1 when any bar of :mod:`repro.harness.ledger` fails.  ``bench --check REPORT...`` gates
    files instead; the suite and the scope are read from each report.
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
    emits the ``repro.cert.v1`` certificate (``--verify-output``);
    ``--strict`` makes an incomplete certificate exit nonzero.  Exit 1
    on any graph/AST finding.
    """
    from repro.analysis.graphlint import lint_graph
    from repro.analysis.parallelism import analyze_graph
    from repro.analysis.pylint import lint_paths

    failed = False
    results = {}
    config = {
        "cell": args.cell,
        "input_size": args.input_size,
        "hidden": args.hidden,
        "layers": args.layers,
        "seq_len": args.seq_len,
        "batch": args.batch,
        "mbs": args.mbs,
        "head": args.head,
        "training": not args.infer,
        "barrier_free": not args.barriers,
        "serialize_chunks": args.serialize_chunks,
        "fused_input_projection": args.fused_input_projection,
        "proj_block": args.proj_block,
        "fusion": args.fusion,
        "wavefront_tile": args.wavefront_tile,
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
        import json

        from repro.analysis.verify import build_certificate, full_family_matrix

        if args.verify not in ("full", "smoke"):
            print(f"unknown --verify scope {args.verify!r} (full|smoke)",
                  file=sys.stderr)
            return 2
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
        results["verify"] = {
            "scope": args.verify,
            "n_families": cert["n_families"],
            "n_certified": cert["n_certified"],
            "mutations_detected": cert["mutations"]["all_detected"],
            "cross_validation_ok": cross["ok"],
            "ok": cert["ok"],
        }
        if args.verify_output:
            with open(args.verify_output, "w") as fh:
                fh.write(json.dumps(cert, indent=2) + "\n")
            print(f"# certificate written to {args.verify_output}", file=sys.stderr)
        if args.strict:
            failed |= not cert["ok"]

    if args.output:
        from repro.harness.ledger import make_report, write_report

        write_report(args.output, make_report("graph_analysis", config, results))
        print(f"# report written to {args.output}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_memory(args) -> None:
    free, barred = figures.memory_study()
    print(f"barrier-free : {free.mean_live_tasks:5.1f} live tasks, "
          f"{free.mean_live_wss_bytes / 1e6:6.1f} MB live WSS")
    print(f"with barriers: {barred.mean_live_tasks:5.1f} live tasks, "
          f"{barred.mean_live_wss_bytes / 1e6:6.1f} MB live WSS")


COMMANDS = {
    "describe": _cmd_describe,
    "table3": lambda a: _cmd_table("lstm", "Table III: BLSTM (ms)", a),
    "table4": lambda a: _cmd_table("gru", "Table IV: BGRU (ms)", a),
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "granularity": _cmd_granularity,
    "memory": _cmd_memory,
    "serve-bench": _cmd_serve_bench,
    "bench": _cmd_bench,
    "racecheck": _cmd_racecheck,
    "analyze": _cmd_analyze,
}


def _add_serve_bench_args(parser: argparse.ArgumentParser) -> None:
    # serving knobs (queue/batcher/admission) live in the shared "serving
    # options" group (repro.serve.config.add_serve_args); this group
    # carries the model shape and the report path.
    g = parser.add_argument_group("model and report options")
    g.add_argument("--cell", choices=("lstm", "gru"), default="lstm")
    g.add_argument("--hidden", type=int, default=256)
    g.add_argument("--layers", type=int, default=6)
    g.add_argument("--input-size", type=int, default=64)
    g.add_argument("--seq-min", type=int, default=40)
    g.add_argument("--seq-max", type=int, default=100)
    g.add_argument("--output", type=str, default=None,
                   help="also write the JSON report to this path")
    g.add_argument("--seq-len", type=int, default=100,
                   help="sequence length of the analysed/checked batch")
    g.add_argument("--batch", type=int, default=32,
                   help="batch size of the analysed/checked batch")


def _add_bench_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("bench options")
    g.add_argument("suite", nargs="?", default=None,
                   help="bench: the suite to run (directly after 'bench')")
    g.add_argument("--record", action="store_true",
                   help="run the suite's paper-scale size and write its "
                        "benchmarks/baselines/BENCH_<suite>.json")
    g.add_argument("--check", nargs="+", default=None, metavar="REPORT",
                   help="gate written reports against the ledger's bars "
                        "instead of running a suite")


def _add_racecheck_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("racecheck options")
    g.add_argument("--head", choices=("many_to_one", "many_to_many"),
                   default="many_to_one")
    g.add_argument("--infer", action="store_true",
                   help="check a forward-only (inference) graph")
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
    g.add_argument("--barriers", action="store_true",
                   help="analyze/racecheck the per-layer-barrier (framework) graph variant")
    g.add_argument("--serialize-chunks", action="store_true",
                   help="analyze/racecheck the B-Seq (chunk-serialised) graph variant")
    g.add_argument("--verify", nargs="?", const="full", default=None,
                   metavar="SCOPE",
                   help="run the symbolic dependence verifier: SCOPE 'full' "
                        "(default) certifies the whole family matrix, "
                        "'smoke' an 11-family diagonal")
    g.add_argument("--verify-samples", type=int, default=8,
                   help="concrete configs the certificate cross-validates "
                        "against the dynamic race checker (default 8)")
    g.add_argument("--verify-output", type=str, default=None, metavar="PATH",
                   help="write the repro.cert.v1 certificate JSON to PATH "
                        "(the input of tools/check_verify.py)")
    g.add_argument("--strict", action="store_true",
                   help="with --verify: exit nonzero unless every family "
                        "certifies, every mutation is detected, and "
                        "cross-validation is clean")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures on the simulated machine.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--full", action="store_true",
                        help="use the paper's complete configuration grids")
    add_execution_args(parser)
    add_serve_args(parser)
    _add_serve_bench_args(parser)
    _add_racecheck_args(parser)
    _add_analyze_args(parser)
    _add_bench_args(parser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "bench" and (args.suite or args.check or args.record):
        parser.error("a suite, --check and --record belong to 'bench'")
    return int(COMMANDS[args.command](args) or 0)


if __name__ == "__main__":
    sys.exit(main())
