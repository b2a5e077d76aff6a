"""Project-specific ``ast`` lint over the repro source tree.

Generic Python linters cannot know that a task payload closure must only
touch memory its callsite *declared*, or that ``src/repro/kernels`` is a
float32 zone.  This pass encodes those project rules:

``mutable-default``
    A list/dict/set literal (or constructor call) as a default argument
    is shared across calls — the classic aliasing trap.

``swallowed-exception``
    A bare ``except:`` or ``except Exception/BaseException`` whose body
    neither re-raises nor uses the bound exception discards failures the
    runtime needs to surface (the rule that flagged — and whose fix
    narrowed — the broad catch in ``runtime/racecheck.py``).

``float64-creep``
    Any ``float64`` literal/dtype inside ``src/repro/kernels``: the
    kernels must honour the spec dtype; a stray float64 silently doubles
    bandwidth and desyncs bit-exactness with the oracle.

``undeclared-closure-capture``
    A ``_fn_*`` payload factory's closure touches a region family (via
    the state/params attribute vocabulary below) that its task family's
    access rule does not declare — the *static* mirror of the dynamic
    race checker's observed-vs-declared diff, and it runs on every config
    at once instead of only the ones we execute.

``inplace-mutation-in-only``
    A payload closure mutates (``+=``, slice/index assignment) storage
    whose region family the access rule declares only as ``in``.

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
    activations.pointwise_turn:``.  The turn serialises the cell kernels'
    pointwise stretches so that two workers stop trading the GIL at every
    small NumPy call (docs/EXECUTORS.md); a GEMM is the one part of a cell
    that runs without the GIL and scales with the workers, and under the
    turn it would be serialised with everything else.

Waivers: append ``# lint: waive <rule>[, <rule>...]`` (or ``waive all``)
on the finding's line or the line above.

The closure rules compare two readings of the source.  *Declared*: a
factory is paired with its task family — the ``kind="…"`` literal of the
``self._add(…)`` call it is handed to, plus the enclosing build method —
and the family's rule function is looked up in the ``FAMILIES`` literal
of :mod:`repro.core.access_spec`, the table the builder emits
declarations from (a module without its own ``FAMILIES`` literal reads
the ``access_spec.py`` beside it).  Inside a rule, a tuple literal starting with a string
is a region key (``_in_key(…)`` is ``x`` or ``m``); it is an ``in`` or a
write according to the ``ins``/``outs``/``inouts`` variable or
``AccessDecl`` keyword it sits under.  *Touched*: :data:`FAMILY_IDENTS`
maps state/params attribute names to the region families their storage
backs (the static analogue of ``GraphBuildResult.region_storage``).
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

RULES = (
    "mutable-default",
    "swallowed-exception",
    "float64-creep",
    "undeclared-closure-capture",
    "inplace-mutation-in-only",
    "fork-unsafe-capture",
    "shm-use-after-close",
    "loop-variable-capture",
    "gemm-under-turn",
)

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set"}

#: Identifier → region families whose storage that identifier backs.
#: Mirrors ``GraphBuildResult.region_storage``: ``state.h_f`` rows are the
#: ``("h", …)`` regions, ``params`` holds the ``W``/``Wout`` regions, a
#: ``grads`` container spans all three gradient families, and
#: ``layer_input`` resolves to the layer's input region (``x`` or ``m``).
#: Identifiers absent from the table (``h0``, ``labels``, ``loss_sums``,
#: locals) back no region and never lint.
FAMILY_IDENTS: Dict[str, FrozenSet[str]] = {
    "h_f": frozenset({"h"}), "h_r": frozenset({"h"}),
    "c_f": frozenset({"h"}), "c_r": frozenset({"h"}),
    "cache_f": frozenset({"cache"}), "cache_r": frozenset({"cache"}),
    "zx_f": frozenset({"zx"}), "zx_r": frozenset({"zx"}),
    "dz_f": frozenset({"dz"}), "dz_r": frozenset({"dz"}),
    "dh_f": frozenset({"dh"}), "dh_r": frozenset({"dh"}),
    "dc_f": frozenset({"dh"}), "dc_r": frozenset({"dh"}),
    "merged": frozenset({"m"}),
    "dmerged": frozenset({"dm"}),
    "last_merged": frozenset({"mlast"}),
    "dlast_merged": frozenset({"dmlast"}),
    "logits": frozenset({"logits"}),
    "dlogits": frozenset({"dlogits"}),
    "layer_input": frozenset({"x", "m"}),
    "x": frozenset({"x"}),
    "grads": frozenset({"gW", "gWout"}),
    "params": frozenset({"W", "Wout"}),
    "velocity": frozenset({"vel"}),
}


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
    if "kernels" not in parts:
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


# -- closure/declaration rules -------------------------------------------


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _access_rules(tree: ast.Module, path: str) -> Dict[str, ast.FunctionDef]:
    """Family id → rule function, read from the table module's
    ``FAMILIES = {"kind@site": rule, …}`` literal.

    The table module is the linted module itself when it holds such a
    literal, else the ``access_spec.py`` beside ``path``
    (``core/graph_builder.py``'s case).
    """

    def families_literal(module: ast.Module) -> Optional[ast.Dict]:
        for node in module.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(_terminal_name(t) == "FAMILIES" for t in targets):
                    return node.value
        return None

    sibling = os.path.join(os.path.dirname(path), "access_spec.py")
    if families_literal(tree) is None and os.path.isfile(sibling):
        with open(sibling, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
    literal = families_literal(tree)
    if literal is None:
        return {}
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    return {
        key.value: functions[_terminal_name(value)]
        for key, value in zip(literal.keys, literal.values)
        if isinstance(key, ast.Constant) and _terminal_name(value) in functions
    }


def _key_families(node: ast.AST) -> Set[str]:
    """Region families of the keys written inside ``node``: a tuple literal
    whose first element is a string is a region key, and ``_in_key(…)`` is
    the layer input (``x`` below the first layer, ``m`` above)."""
    fams: Set[str] = set()
    for n in ast.walk(node):
        if (
            isinstance(n, ast.Tuple)
            and n.elts
            and isinstance(n.elts[0], ast.Constant)
            and isinstance(n.elts[0].value, str)
        ):
            fams.add(n.elts[0].value)
        elif isinstance(n, ast.Call) and _terminal_name(n.func) == "_in_key":
            fams |= {"x", "m"}
    return fams


_BUCKET_OF = {"ins": "ins", "outs": "writes", "inouts": "writes"}


def _declaration_buckets(rule: Optional[ast.FunctionDef]) -> Dict[str, Set[str]]:
    """Region families an access rule declares, split by access mode.

    ``ins``/``writes`` hold the families of the keys in ``in``- /
    ``out``+``inout``-flavoured positions: the ``ins=``/``outs=``/
    ``inouts=`` keywords of the ``AccessDecl(…)`` calls, and assignments,
    ``+=`` and ``append``/``extend`` on variables literally named
    ``ins``/``outs``/``inouts``.  A key anywhere else declares nothing; a
    family with no rule (``rule is None``) declares nothing at all.
    """
    buckets: Dict[str, Set[str]] = {"ins": set(), "writes": set()}
    for node in ast.walk(rule) if rule is not None else ():
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg in _BUCKET_OF:
                    buckets[_BUCKET_OF[kw.arg]] |= _key_families(kw.value)
            # ins.append(...) / inouts.extend(...)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in _BUCKET_OF
            ):
                for arg in node.args:
                    buckets[_BUCKET_OF[node.func.value.id]] |= _key_families(arg)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in _BUCKET_OF:
                    buckets[_BUCKET_OF[target.id]] |= _key_families(node.value)
    return buckets


def _ident_families(node: ast.AST, aliases: Dict[str, FrozenSet[str]]) -> Set[str]:
    """Union of region families named by any identifier in ``node``."""
    fams: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            fams |= aliases.get(n.id, FAMILY_IDENTS.get(n.id, frozenset()))
        elif isinstance(n, ast.Attribute):
            fams |= FAMILY_IDENTS.get(n.attr, frozenset())
    return fams


def _collect_aliases(
    body: Sequence[ast.stmt], aliases: Dict[str, FrozenSet[str]]
) -> None:
    """Fold simple local assignments into the alias map, in source order.

    Handles tuple unpacking and conditional expressions, so e.g.
    ``target = state.zx_f if fwd else state.zx_r`` gives ``target`` the
    ``zx`` family.  Mutates ``aliases`` in place.
    """
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            if isinstance(target, ast.Name):
                aliases[target.id] = frozenset(_ident_families(value, aliases))
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(value, ast.Tuple)
                and len(target.elts) == len(value.elts)
            ):
                for t, v in zip(target.elts, value.elts):
                    if isinstance(t, ast.Name):
                        aliases[t.id] = frozenset(_ident_families(v, aliases))
        elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
            _collect_aliases(stmt.body, aliases)
            _collect_aliases(getattr(stmt, "orelse", []), aliases)


def _closure_findings(tree: ast.Module, path: str) -> List[PyLintFinding]:
    findings: List[PyLintFinding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        factories = [m for m in methods if m.name.startswith("_fn_")]
        if not factories:
            continue
        rules = _access_rules(tree, path)

        # Families each payload factory serves: the ``kind`` literal of the
        # ``_add`` call it is handed to, at the enclosing build method.
        served: Dict[str, Set[str]] = {}
        for method in methods:
            for call in ast.walk(method):
                if not (isinstance(call, ast.Call) and _terminal_name(call.func) == "_add"):
                    continue
                kinds = [kw.value.value for kw in call.keywords
                         if kw.arg == "kind" and isinstance(kw.value, ast.Constant)]
                if not kinds:
                    continue
                for node in (n for arg in call.args for n in ast.walk(arg)):
                    name = _terminal_name(node.func) if isinstance(node, ast.Call) else None
                    if name and name.startswith("_fn_"):
                        served.setdefault(name, set()).add(f"{kinds[0]}@{method.name}")

        for factory in factories:
            families = sorted(served.get(factory.name, ()))
            if not families:
                continue  # unused factory: no declaration context to check
            ins: Set[str] = set()
            writes: Set[str] = set()
            for family in families:
                buckets = _declaration_buckets(rules.get(family))
                ins |= buckets["ins"]
                writes |= buckets["writes"]
            declared = ins | writes
            family_label = "/".join(families)

            aliases: Dict[str, FrozenSet[str]] = {}
            _collect_aliases(factory.body, aliases)
            # every payload variant, including ones defined under an ``if``
            inner_fns = [
                n for n in ast.walk(factory)
                if isinstance(n, ast.FunctionDef) and n is not factory
            ]
            for fn in inner_fns:
                fn_aliases = dict(aliases)
                _collect_aliases(fn.body, fn_aliases)

                # undeclared-closure-capture: any storage identifier whose
                # families miss the rule's declarations entirely.
                reported: Set[str] = set()
                for node in ast.walk(fn):
                    ident = None
                    if isinstance(node, ast.Attribute):
                        ident = node.attr
                    elif isinstance(node, ast.Name):
                        ident = node.id
                    if ident is None or ident in reported:
                        continue
                    fams = (
                        fn_aliases.get(ident, FAMILY_IDENTS.get(ident, frozenset()))
                        if isinstance(node, ast.Name)
                        else FAMILY_IDENTS.get(ident, frozenset())
                    )
                    if fams and not (fams & declared):
                        reported.add(ident)
                        findings.append(
                            PyLintFinding(
                                rule="undeclared-closure-capture",
                                path=path,
                                line=node.lineno,
                                message=f"payload closure in `{factory.name}` touches "
                                f"`{ident}` (region family {sorted(fams)}) but the "
                                f"access rule of `{family_label}` declares no region "
                                "of that family",
                            )
                        )

                # inplace-mutation-in-only: mutations on in-only families.
                mutations: List[ast.AST] = []
                for node in ast.walk(fn):
                    if isinstance(node, ast.AugAssign):
                        mutations.append(node.target)
                    elif isinstance(node, ast.Assign):
                        mutations.extend(
                            t
                            for t in node.targets
                            if isinstance(t, (ast.Subscript, ast.Attribute))
                        )
                for target in mutations:
                    fams = _ident_families(target, fn_aliases)
                    if fams and fams & ins and not (fams & writes):
                        findings.append(
                            PyLintFinding(
                                rule="inplace-mutation-in-only",
                                path=path,
                                line=target.lineno,
                                message=f"payload closure in `{factory.name}` mutates "
                                f"storage of region family {sorted(fams)} that "
                                f"the access rule of `{family_label}` declares only "
                                "as `in`",
                            )
                        )
    return findings


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


def _stored_names(nodes: Sequence[ast.AST]) -> Set[str]:
    """Names the given nodes (re)bind, nested function bodies excluded."""
    names: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return names


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


def _is_gemm(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Call) and _terminal_name(node.func) in _GEMM_CALLEES


def _gemm_under_turn_findings(tree: ast.AST, path: str) -> List[PyLintFinding]:
    findings = []
    for block in ast.walk(tree):
        if not isinstance(block, ast.With) or not any(
            _terminal_name(item.context_expr) == _TURN for item in block.items
        ):
            continue
        for node in (n for stmt in block.body for n in ast.walk(stmt)):
            if _is_gemm(node):
                findings.append(
                    PyLintFinding(
                        rule="gemm-under-turn",
                        path=path,
                        line=node.lineno,
                        message=f"matrix product inside `with {_TURN}:` — a GEMM runs "
                        "without the GIL and scales with the workers; under the turn "
                        "it is serialised.  Compute it before the block",
                    )
                )
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
        + _closure_findings(tree, path)
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
