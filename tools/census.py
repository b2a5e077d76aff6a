"""Call census: the functions in ``src/repro`` that no product entry point calls.

Runs each command of ``entry_points`` in a fresh interpreter whose
``sitecustomize`` sets a global trace function (``sys.settrace`` and
``threading.settrace``: one ``call`` event per frame) on every thread, and in
every child process (``bench/run.py``'s workers too).  Each process records
where the code it ran under ``src/repro`` starts.  Every ``def`` there that
none ran is printed with its line count, leaving out ``ALLOWLIST``.  The
census writes to one temp dir only.

Usage: python tools/census.py   (~15 min on 2 vCPUs; exit 1 if one is listed)
"""

import ast
import glob
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

#: ``module`` or ``module::qualname`` (a class covers its methods) -> why the
#: entry points may leave it uncalled
ALLOWLIST = {
    "runtime/racecheck.py": "race checker: reports run on a race, record/replay under tests",
    "analysis/verify.py": "certificate: its diff and pair reports run when a proof fails",
    "core/symbolic.py": "the certificate's affine algebra: a value type's whole operator set",
    "analysis/pylint.py::PyLintFinding": "a lint finding's report; the lint runs clean",
    "runtime/mpexec.py": "forked workers leave through os._exit, calls and all (item 4)",
    "runtime/shm.py": "the process executor's arena, attached in forked workers (item 4)",
    "runtime/protocol.py": "the Executor signature stub and the worker-crash error (item 4)",
    "kernels/activations.py::_fresh_turn": "runs in a forked child (register_at_fork, item 4)",
    "compile/plan.py": "the compiled plan record; ROADMAP item 11 retires plans",
    "obs/publish.py": "the metrics= seam: scheduler and plan-cache series need threads, compile",
    "obs/registry.py": "the registry's read side: entry points publish metrics, none reads them",
    "runtime/scheduler.py::SchedulerCounters": "its rates are read by publish_scheduler",
    "runtime/scheduler.py::RecordingScheduler": "records a fuzzed order for golden replay",
    "runtime/scheduler.py::ScheduleRecord": "a recorded order's JSON form (the golden fixture)",
    "runtime/depgraph.py::TaskGraph.validate_acyclic": "the cycle oracle of certificate tests",
    "runtime/depgraph.py::TaskGraph.is_topological_order": "the order oracle of property tests",
    "harness/ledger.py::Bar.label": "a failed bar's text; every gated report passes",
    "runtime/executor.py::starved_error": "raised only when a replayed order starves",
}

SITE = '''\
import atexit, os, sys, threading
_root, _out, _seen = os.environ["CENSUS_ROOT"], os.environ["CENSUS_OUT"], {}
def _trace(frame, event, arg):  # a global trace function only sees "call"
    _seen[id(frame.f_code)] = frame.f_code
def _dump():
    sys.settrace(None)
    codes = list(_seen.values())  # one C call: no thread adds to it meanwhile
    with open(os.path.join(_out, "calls-%d.txt" % os.getpid()), "a") as fh:
        fh.writelines("%s:%d\\n" % (c.co_filename, c.co_firstlineno)
                      for c in codes if c.co_filename.startswith(_root))
sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_dump)
'''


def entry_points(tmp):
    """The product's commands: the benchmark, the examples, the CLI and tools."""
    py, repro = sys.executable, [sys.executable, "-m", "repro"]
    run = [py, os.path.join(REPO, "bench/run.py"), "--quick", "--guard-seconds", "3600"]
    cmds = [run, run + ["--trace", "1", "--trace-out", os.path.join(tmp, "WORKLOAD.json.gz")]]
    cmds += [[py, path] for path in sorted(glob.glob(os.path.join(REPO, "examples/*.py")))]
    cmds += [repro + [name] for name in ("describe", "table3", "table4", "fig3", "fig4", "fig5",
                                         "fig6", "fig7", "fig8", "granularity", "memory")]
    suites = ("paper", "fusion", "fleet", "obs_overhead")
    report = {name: os.path.join(tmp, name + ".json") for name in suites + ("graph", "cert")}
    # fleet's two sizes are one, so its run takes the --record path as well
    cmds += [repro + ["bench", s, "--output", report[s]] + ["--record"] * (s == "fleet")
             for s in suites]
    observe = repro + ["analyze", "--observe", "--fuzz-seeds", "5", "--hidden", "8", "--layers",
                       "2", "--input-size", "6", "--seq-len", "5", "--batch", "8", "--mbs", "2"]
    baselines = sorted(glob.glob(os.path.join(REPO, "benchmarks/baselines/BENCH_*.json")))
    cmds += [observe + ["--fused-input-projection", "off", "--output", report["graph"]],
             observe + ["--fused-input-projection", "on", "--proj-block", "2"],
             observe + ["--wavefront-tile", "2"],
             repro + ["analyze", "--skip-graph", "--verify", "--verify-output", report["cert"]],
             repro + ["bench", "--check", *report.values(), *baselines]]
    cmds += [repro + ["analyze", "--skip-graph", "--lint", os.path.join(REPO, part)]
             for part in ("src/repro", "tools", "examples", "tests")]
    return cmds + [[py, os.path.join(REPO, "tools", tool), *args] for tool, *args in
                   (("calibrate.py", "quick"), ("calibrate.py", "probe"), ("graph_digest.py",))]


def record(commands, root, tmp, pythonpath=(SRC,)):
    """``{(file, first line)}`` of the code under ``root`` that ``commands`` ran."""
    os.makedirs(os.path.join(tmp, "site"), exist_ok=True)
    with open(os.path.join(tmp, "site", "sitecustomize.py"), "w") as fh:
        fh.write(SITE)
    env = dict(os.environ, CENSUS_ROOT=os.path.join(os.path.abspath(root), ""), CENSUS_OUT=tmp,
               PYTHONPATH=os.pathsep.join([os.path.join(tmp, "site"), *pythonpath]))
    for cmd in commands:
        code = subprocess.call(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL)
        print(f"census: exit {code}:", *map(os.path.basename, cmd[1:]), file=sys.stderr)
    calls = set()
    for path in glob.glob(os.path.join(tmp, "calls-*.txt")):
        with open(path) as fh:
            calls.update((f, int(n)) for f, _, n in (ln.rstrip().rpartition(":") for ln in fh))
    return calls


def functions(root):
    """``(file, first line, qualname, lines)`` of every ``def`` under ``root``."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                yield first, prefix + child.name, child.end_lineno - first + 1
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from walk(child, prefix + child.name + "." if named else prefix)

    for path in sorted(glob.glob(os.path.join(os.path.abspath(root), "**/*.py"), recursive=True)):
        with open(path) as fh:
            yield from ((path, *row) for row in walk(ast.parse(fh.read(), path), ""))


def allowed(module, qual, allowlist=ALLOWLIST):
    """Whether the allowlist names ``module``, the def itself or a class around it."""
    parts = qual.split(".")
    names = {module} | {f"{module}::{'.'.join(parts[:i])}" for i in range(1, len(parts) + 1)}
    return not names.isdisjoint(allowlist)


def main():
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        calls = record(entry_points(tmp), PACKAGE, tmp)
    defs = list(functions(PACKAGE))
    never = [d for d in defs if (d[0], d[1]) not in calls]
    shown = [d for d in never if not allowed(os.path.relpath(d[0], PACKAGE), d[2])]
    for path, first, qual, n in shown:
        print(f"{os.path.relpath(path, REPO)}:{first} {qual} ({n} lines)")
    print(f"census: {len(never)} of {len(defs)} functions never called ({sum(d[3] for d in never)}"
          f" lines); {len(shown)} outside the allowlist ({sum(d[3] for d in shown)} lines)")
    return 1 if shown else 0


if __name__ == "__main__":
    sys.exit(main())
