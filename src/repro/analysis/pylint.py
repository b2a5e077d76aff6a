"""Project-specific ``ast`` lint over the repro source tree.

Generic Python linters cannot know that a task payload crosses a fork
boundary, that a GEMM must stay outside the pointwise turn, or that
``src/repro/kernels`` is a float32 zone.  This pass encodes those project
rules, each a hazard that running the code once would not show:

``mutable-default``
    A list/dict/set literal (or constructor call) as a default argument
    is shared across calls — the classic aliasing trap.

``swallowed-exception``
    A bare ``except:`` or ``except Exception/BaseException`` whose body
    neither re-raises nor uses the bound exception discards failures the
    runtime needs to surface (the rule that flagged — and whose fix
    narrowed — the broad catch in ``runtime/racecheck.py``).

``float64-creep``
    Any ``float64`` literal/dtype inside the package directory
    ``repro/kernels`` (not any directory named ``kernels``): the kernels
    must honour the spec dtype; a stray float64 silently doubles
    bandwidth and desyncs bit-exactness with the oracle.

``fork-unsafe-capture``
    A ``_fn_*`` payload closure captures state that does not survive the
    fork/pickle boundary the multiprocess executor pushes payloads
    across: a lock/semaphore/condition bound in the factory, an open
    file handle, a generator object (both pickle-hostile), or the
    ``np.random`` *global* generator (forked children inherit identical
    RNG state, so "random" draws repeat across workers — use a
    ``default_rng`` instance threaded through the closure instead).

``shm-use-after-close``
    A zero-copy :class:`~repro.runtime.shm.ShmArena` view
    (``view_array`` / ``get_array(..., copy=False)``) is dereferenced
    after the arena's ``close()``/``destroy()`` in the same function —
    the unmap can succeed underneath the view, turning the access into
    undefined behaviour (see the lifecycle note in ``runtime/shm.py``).

``loop-variable-capture``
    A closure defined in a ``for`` body and handed to ``add_task``/``Task``
    reads a name the loop rebinds without binding it as a default.  A
    payload runs after the build loop has finished, so every task sees
    the last iteration's value and the result depends on the schedule
    (the block-local attention bug the one-thread executor exposed).

``gemm-under-turn``
    A ``@``, ``np.matmul`` or ``np.dot`` inside the body of ``with
    activations.pointwise_turn:`` (or of ``with turn:`` where the same
    function bound ``turn`` from it).  The turn serialises the cell kernels'
    pointwise stretches so that two workers stop trading the GIL at every
    small NumPy call (docs/EXECUTORS.md); a GEMM is the one part of a cell
    that runs without the GIL and scales with the workers, and under the
    turn it would be serialised with everything else.

Waivers: append ``# lint: waive <rule>[, <rule>...]`` (or ``waive all``)
on the finding's line or the line above.

Whether a payload touches only the regions its access rule declares is
not a source-level question here: the dependence certificate runs every
payload it proves under access observation and diffs the touched bytes
against the declarations (:func:`repro.analysis.verify.cross_validate`).
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

RULES = (
    "mutable-default",
    "swallowed-exception",
    "float64-creep",
    "fork-unsafe-capture",
    "shm-use-after-close",
    "loop-variable-capture",
    "gemm-under-turn",
)

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set"}


@dataclass
class PyLintFinding:
    """One source-level lint violation."""

    rule: str
    path: str
    line: int
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


# -- waivers --------------------------------------------------------------


def _waivers(source: str) -> Dict[int, Set[str]]:
    """``{line: waived rule names}`` from ``# lint: waive …`` comments."""
    waived: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith("lint:"):
                continue
            directive = text[len("lint:"):].strip()
            if not directive.startswith("waive"):
                continue
            names = directive[len("waive"):].replace(",", " ").split()
            waived.setdefault(tok.start[0], set()).update(names or {"all"})
    except tokenize.TokenError:
        pass
    return waived


def _is_waived(finding: PyLintFinding, waived: Dict[int, Set[str]]) -> bool:
    for line in (finding.line, finding.line - 1):
        rules = waived.get(line)
        if rules and (finding.rule in rules or "all" in rules):
            return True
    return False


# -- generic rules --------------------------------------------------------


def _mutable_default_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
            )
            if bad:
                name = getattr(node, "name", "<lambda>")
                findings.append(
                    PyLintFinding(
                        rule="mutable-default",
                        path=path,
                        line=default.lineno,
                        message=f"mutable default argument in `{name}` is shared "
                        "across calls; default to None and build it inside",
                    )
                )
    return findings


def _swallowed_exception_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is not None:
            names = set()
            for t in ast.walk(node.type):
                if isinstance(t, ast.Name):
                    names.add(t.id)
                elif isinstance(t, ast.Attribute):
                    names.add(t.attr)
            if not names & _BROAD_EXCEPTIONS:
                continue
        reraises = any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
        uses_exc = node.name is not None and any(
            isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load)
            for stmt in node.body
            for n in ast.walk(stmt)
        )
        if not reraises and not uses_exc:
            caught = "bare except" if node.type is None else "except Exception"
            findings.append(
                PyLintFinding(
                    rule="swallowed-exception",
                    path=path,
                    line=node.lineno,
                    message=f"{caught} discards the failure — catch the specific "
                    "error, re-raise, or record the bound exception",
                )
            )
    return findings


def _float64_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    parts = os.path.normpath(path).split(os.sep)
    if ("repro", "kernels") not in zip(parts, parts[1:]):
        return []
    findings = []
    for node in ast.walk(tree):
        hit = (
            (isinstance(node, ast.Name) and node.id == "float64")
            or (isinstance(node, ast.Attribute) and node.attr == "float64")
            or (isinstance(node, ast.Constant) and node.value == "float64")
        )
        if hit:
            findings.append(
                PyLintFinding(
                    rule="float64-creep",
                    path=path,
                    line=node.lineno,
                    message="float64 inside the kernels — kernels must honour the "
                    "spec dtype (float32 by default)",
                )
            )
    return findings


# -- shared helpers ------------------------------------------------------


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# -- fork/pickle-safety of payload closures -------------------------------

_LOCK_CONSTRUCTORS = {
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition", "Event",
    "Barrier",
}
#: ``np.random`` attributes that are *not* the shared global generator
_SAFE_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                   "PCG64", "Philox", "SFC64"}


def _fork_unsafe_bindings(factory: ast.FunctionDef) -> Dict[str, str]:
    """``{name: hazard}`` for factory-level bindings a payload must not
    capture: locks, open file handles, and generator objects."""
    hazards: Dict[str, str] = {}
    payload_ids = {
        id(n)
        for stmt in factory.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(stmt)
    }
    for node in ast.walk(factory):
        if id(node) in payload_ids:
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            name, value = node.targets[0].id, node.value
            if isinstance(value, ast.GeneratorExp):
                hazards[name] = "a generator object"
            elif isinstance(value, ast.Call):
                callee = _terminal_name(value.func)
                if callee in _LOCK_CONSTRUCTORS:
                    hazards[name] = f"a {callee.lower()}"
                elif callee == "open":
                    hazards[name] = "an open file handle"
        elif isinstance(node, ast.With):
            for item in node.items:
                if (
                    item.optional_vars is not None
                    and isinstance(item.optional_vars, ast.Name)
                    and isinstance(item.context_expr, ast.Call)
                    and _terminal_name(item.context_expr.func) == "open"
                ):
                    hazards[item.optional_vars.id] = "an open file handle"
    return hazards


def _np_random_global(node: ast.AST) -> Optional[str]:
    """``"np.random.<fn>"`` when ``node`` touches the global generator."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "random"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in ("np", "numpy")
        and node.attr not in _SAFE_NP_RANDOM
    ):
        return f"{node.value.value.id}.random.{node.attr}"
    return None


def _fork_unsafe_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    findings: List[PyLintFinding] = []
    for factory in ast.walk(tree):
        if not isinstance(factory, ast.FunctionDef) or not factory.name.startswith(
            "_fn_"
        ):
            continue
        hazards = _fork_unsafe_bindings(factory)
        for fn in factory.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reported: Set[str] = set()
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in hazards
                    and node.id not in reported
                ):
                    reported.add(node.id)
                    findings.append(
                        PyLintFinding(
                            rule="fork-unsafe-capture",
                            path=path,
                            line=node.lineno,
                            message=f"payload closure in `{factory.name}` captures "
                            f"`{node.id}` ({hazards[node.id]}) — it cannot cross "
                            "the multiprocess executor's fork/pickle boundary",
                        )
                    )
                    continue
                hit = _np_random_global(node)
                if hit and hit not in reported:
                    reported.add(hit)
                    findings.append(
                        PyLintFinding(
                            rule="fork-unsafe-capture",
                            path=path,
                            line=node.lineno,
                            message=f"payload closure in `{factory.name}` uses "
                            f"`{hit}` — forked workers inherit identical global "
                            "RNG state; thread a `default_rng` instance through "
                            "the closure instead",
                        )
                    )
    return findings


# -- shm view lifetime -----------------------------------------------------

_ARENA_CLOSERS = {"close", "destroy"}


def _receiver_name(func: ast.AST) -> Optional[str]:
    """Dotted receiver of a method call (``self._arena.close`` → the
    ``self._arena`` part), or None for non-attribute calls."""
    if not isinstance(func, ast.Attribute):
        return None
    parts = []
    node = func.value
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_view_call(value: ast.AST) -> Optional[str]:
    """Arena receiver when ``value`` is a zero-copy view construction."""
    if not isinstance(value, ast.Call):
        return None
    callee = _terminal_name(value.func)
    if callee == "view_array":
        return _receiver_name(value.func)
    if callee == "get_array":
        for kw in value.keywords:
            if (
                kw.arg == "copy"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                return _receiver_name(value.func)
    return None


def _is_arena_ctor(value: ast.AST) -> bool:
    return isinstance(value, ast.Call) and _terminal_name(value.func) in (
        "ShmArena",
        "attach",
    ) and (
        _terminal_name(value.func) == "ShmArena"
        or (
            isinstance(value.func, ast.Attribute)
            and _terminal_name(value.func.value) == "ShmArena"
        )
    )


def _linear_events(body: Sequence[ast.stmt]):
    """Statements of a function body flattened in source order.

    Compound statements contribute their header expression, then their
    nested bodies, then (for ``with``) a ``("with_end", stmt)`` marker so
    the lifetime scan can model ``__exit__``.  Nested function/class
    definitions are separate scopes and are skipped.
    """
    for stmt in body:
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                yield item.context_expr
            yield from _linear_events(stmt.body)
            yield ("with_end", stmt)
        elif isinstance(stmt, (ast.If, ast.While)):
            yield stmt.test
            yield from _linear_events(stmt.body)
            yield from _linear_events(stmt.orelse)
        elif isinstance(stmt, ast.For):
            yield stmt.iter
            yield from _linear_events(stmt.body)
            yield from _linear_events(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _linear_events(stmt.body)
            for handler in stmt.handlers:
                yield from _linear_events(handler.body)
            yield from _linear_events(stmt.orelse)
            yield from _linear_events(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        else:
            yield stmt


def _shm_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    """Linear per-function scan for view dereference after arena close."""
    findings: List[PyLintFinding] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arenas: Set[str] = set()
        views: Dict[str, str] = {}  # view var -> arena receiver
        closed: Dict[str, int] = {}  # arena receiver -> close lineno
        for event in _linear_events(fn.body):
            if isinstance(event, tuple):
                for item in event[1].items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and _is_arena_ctor(item.context_expr)
                    ):
                        closed[item.optional_vars.id] = (
                            event[1].end_lineno or event[1].lineno
                        )
                continue
            for node in ast.walk(event):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in views
                    and views[node.id] in closed
                ):
                    arena = views[node.id]
                    findings.append(
                        PyLintFinding(
                            rule="shm-use-after-close",
                            path=path,
                            line=node.lineno,
                            message=f"zero-copy view `{node.id}` dereferenced "
                            f"after `{arena}` was closed on line "
                            f"{closed[arena]} — the mapping may be gone",
                        )
                    )
                    del views[node.id]  # one finding per stale view
            for node in ast.walk(event):
                if isinstance(node, ast.Call):
                    recv = _receiver_name(node.func)
                    if (
                        recv is not None
                        and _terminal_name(node.func) in _ARENA_CLOSERS
                        and recv in arenas
                    ):
                        closed.setdefault(recv, node.lineno)
                if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
                    isinstance(node.targets[0], ast.Name)
                ):
                    name, value = node.targets[0].id, node.value
                    views.pop(name, None)
                    arena = _is_view_call(value)
                    if arena is not None:
                        views[name] = arena
                        arenas.add(arena)
                    elif _is_arena_ctor(value):
                        arenas.add(name)
                        closed.pop(name, None)
    return findings


# -- late-binding payload closures ------------------------------------------

_TASK_CALLEES = {"add_task", "Task"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(*roots: ast.AST):
    """``roots`` and the nodes under them, nested function bodies excluded."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _stored_names(nodes: Sequence[ast.AST]) -> Set[str]:
    """Names the given nodes (re)bind, nested function bodies excluded."""
    own = _own_nodes(*nodes)
    return {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _loop_capture_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    findings: Dict[tuple, PyLintFinding] = {}
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.For):
            continue
        rebound = _stored_names([loop.target, *loop.body])
        handed: Set[object] = set()  # names and lambda nodes in a task call's arguments
        for call in ast.walk(loop):
            if isinstance(call, ast.Call) and _terminal_name(call.func) in _TASK_CALLEES:
                for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                    for n in ast.walk(arg):
                        if isinstance(n, (ast.Name, ast.Lambda)):
                            handed.add(getattr(n, "id", n))
        for fn in ast.walk(loop):
            if not isinstance(fn, _FUNCTIONS) or getattr(fn, "name", fn) not in handed:
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            late = rebound - {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            late -= _stored_names(body)
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if isinstance(node, ast.Name) and node.id in late:
                    findings.setdefault(
                        (node.lineno, node.id),
                        PyLintFinding(
                            rule="loop-variable-capture",
                            path=path,
                            line=node.lineno,
                            message=f"task payload `{getattr(fn, 'name', '<lambda>')}` "
                            f"reads `{node.id}`, which the enclosing loop rebinds: "
                            "it runs after the loop and sees the last value — bind "
                            f"it as a default (`{node.id}={node.id}`)",
                        ),
                    )
    return list(findings.values())


# -- GEMMs under the pointwise turn -------------------------------------------

#: the lock of :mod:`repro.kernels.activations`, by the name kernels take it
_TURN = "pointwise_turn"
_GEMM_CALLEES = {"matmul", "dot"}


def _is_gemm(node: ast.AST, products: Set[str]) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Call) and _terminal_name(node.func) in products


def _gemm_under_turn_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    """Products under ``with …pointwise_turn:``, or under ``with turn:`` in a
    function that bound ``turn = …pointwise_turn``; a call of a name the
    function bound to ``…matmul``/``…dot`` is a product too."""
    findings = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(*ast.iter_child_nodes(scope)))
        bound = [(t.id, _terminal_name(n.value)) for n in nodes if isinstance(n, ast.Assign)
                 for t in n.targets if isinstance(t, ast.Name)]
        turns = {_TURN} | {name for name, value in bound if value == _TURN}
        products = _GEMM_CALLEES | {name for name, value in bound if value in _GEMM_CALLEES}
        blocks = [n for n in nodes if isinstance(n, ast.With)
                  and any(_terminal_name(item.context_expr) in turns for item in n.items)]
        findings += [
            PyLintFinding(
                rule="gemm-under-turn",
                path=path,
                line=node.lineno,
                message=f"matrix product inside `with {_TURN}:` — a GEMM runs "
                "without the GIL and scales with the workers; under the turn "
                "it is serialised.  Compute it before the block",
            )
            for block in blocks for stmt in block.body for node in ast.walk(stmt)
            if _is_gemm(node, products)
        ]
    return findings


# -- entry points ---------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> List[PyLintFinding]:
    """Lint one module's source text; returns unwaived findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            PyLintFinding(
                rule="syntax-error",
                path=path,
                line=exc.lineno or 0,
                message=str(exc),
            )
        ]
    findings = (
        _mutable_default_findings(tree, path)
        + _swallowed_exception_findings(tree, path)
        + _float64_findings(tree, path)
        + _fork_unsafe_findings(tree, path)
        + _shm_findings(tree, path)
        + _loop_capture_findings(tree, path)
        + _gemm_under_turn_findings(tree, path)
    )
    waived = _waivers(source)
    kept = [f for f in findings if not _is_waived(f, waived)]
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def lint_file(path: str) -> List[PyLintFinding]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def lint_paths(paths: Sequence[str]) -> List[PyLintFinding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[PyLintFinding] = []
    for root in paths:
        if os.path.isfile(root):
            findings.extend(lint_file(root))
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in sorted(dirnames) if d != "__pycache__"]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    findings.extend(lint_file(os.path.join(dirpath, name)))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
