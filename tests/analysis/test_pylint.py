"""AST payload/codebase lint: per-rule snippets, waivers, and the
whole-package gate.  Whether a payload touches only what its access rule
declares is the certificate's observed audit (``test_verify.py``)."""

from pathlib import Path

import repro
from repro.analysis.pylint import RULES, lint_paths, lint_source

SRC = Path(repro.__file__).resolve().parent


def _rules(findings):
    return [f.rule for f in findings]


# -- mutable-default --------------------------------------------------------


def test_mutable_default_flagged():
    findings = lint_source("def f(a, b=[], c={}):\n    pass\n")
    assert _rules(findings) == ["mutable-default", "mutable-default"]
    assert findings[0].line == 1


def test_mutable_constructor_default_flagged():
    assert _rules(lint_source("def f(x=list()):\n    pass\n")) == ["mutable-default"]


def test_immutable_defaults_clean():
    assert lint_source("def f(a=(), b=None, c=0, d='s'):\n    pass\n") == []


# -- swallowed-exception ----------------------------------------------------


def test_bare_except_pass_flagged():
    src = "try:\n    f()\nexcept Exception:\n    pass\n"
    assert _rules(lint_source(src)) == ["swallowed-exception"]


def test_bare_except_no_name_flagged():
    src = "try:\n    f()\nexcept:\n    x = 1\n"
    assert _rules(lint_source(src)) == ["swallowed-exception"]


def test_except_that_records_the_exception_clean():
    # the executor idiom: catch broad, but *keep* the failure
    src = (
        "try:\n    f()\nexcept BaseException as exc:\n"
        "    errors.append(exc)\n"
    )
    assert lint_source(src) == []


def test_except_that_reraises_clean():
    src = "try:\n    f()\nexcept Exception:\n    raise\n"
    assert lint_source(src) == []


def test_specific_exception_clean():
    src = "try:\n    f()\nexcept ValueError:\n    pass\n"
    assert lint_source(src) == []


# -- float64-creep ----------------------------------------------------------

_F64 = "import numpy as np\n\ndef gemm(a):\n    return a.astype(np.float64)\n"


def test_float64_in_kernels_flagged():
    findings = lint_source(_F64, path="src/repro/kernels/gemm.py")
    assert _rules(findings) == ["float64-creep"]


def test_float64_outside_kernels_clean():
    assert lint_source(_F64, path="src/repro/harness/timing.py") == []


def test_float64_only_in_the_kernels_package():
    """The rule's zone is ``repro/kernels``: a float64 gradient check in a
    test directory of the same name is not kernel code."""
    assert _rules(lint_source(_F64, path="src/repro/kernels/gemm.py")) == ["float64-creep"]
    assert lint_source(_F64, path="tests/kernels/test_gemm.py") == []


def test_float64_string_dtype_in_kernels_flagged():
    src = "def f(a):\n    return a.astype('float64')\n"
    assert _rules(lint_source(src, path="src/repro/kernels/f.py")) == ["float64-creep"]


# -- fork-unsafe-capture ----------------------------------------------------

_FACTORY_TEMPLATE = """
import threading
import numpy as np

class Builder:
    def _fn_probe(self, i):
        {setup}
        def fn():
            {body}
        return fn
"""


def _factory_src(setup, body):
    return _FACTORY_TEMPLATE.format(setup=setup, body=body)


def test_captured_lock_flagged():
    src = _factory_src("guard = threading.Lock()", "with guard:\n                pass")
    findings = lint_source(src)
    assert _rules(findings) == ["fork-unsafe-capture"]
    assert "`guard`" in findings[0].message and "lock" in findings[0].message


def test_captured_open_file_handle_flagged():
    src = _factory_src("fh = open('/tmp/log')", "fh.write('x')")
    findings = lint_source(src)
    assert _rules(findings) == ["fork-unsafe-capture"]
    assert "file handle" in findings[0].message


def test_captured_with_open_handle_flagged():
    src = _factory_src(
        "with open('/tmp/log') as fh:\n            header = fh.readline()",
        "fh.read()",
    )
    assert _rules(lint_source(src)) == ["fork-unsafe-capture"]


def test_captured_generator_flagged():
    src = _factory_src("gen = (k for k in range(i))", "return next(gen)")
    findings = lint_source(src)
    assert _rules(findings) == ["fork-unsafe-capture"]
    assert "generator" in findings[0].message


def test_global_np_random_flagged():
    src = _factory_src("pass", "return np.random.standard_normal(i)")
    findings = lint_source(src)
    assert _rules(findings) == ["fork-unsafe-capture"]
    assert "np.random.standard_normal" in findings[0].message


def test_default_rng_instance_clean():
    src = _factory_src(
        "rng = np.random.default_rng(i)", "return rng.standard_normal(i)"
    )
    assert lint_source(src) == []


def test_hazard_used_only_in_factory_body_clean():
    # the factory may use a handle itself; only *capture* by the payload lints
    src = _factory_src(
        "with open('/tmp/cfg') as fh:\n            scale = float(fh.read())",
        "return scale * i",
    )
    assert lint_source(src) == []


def test_hazard_outside_fn_factory_clean():
    src = (
        "import threading\n"
        "def make(i):\n"
        "    guard = threading.Lock()\n"
        "    def fn():\n"
        "        with guard:\n"
        "            pass\n"
        "    return fn\n"
    )
    assert lint_source(src) == []


# -- shm-use-after-close ----------------------------------------------------


def test_view_after_close_flagged():
    src = (
        "def f(arena, desc):\n"
        "    v = arena.view_array(desc)\n"
        "    arena.close()\n"
        "    return v.sum()\n"
    )
    findings = lint_source(src)
    assert _rules(findings) == ["shm-use-after-close"]
    assert "`v`" in findings[0].message and "`arena`" in findings[0].message


def test_zero_copy_get_array_after_destroy_flagged():
    src = (
        "def f(arena, desc):\n"
        "    v = arena.get_array(desc, copy=False)\n"
        "    arena.destroy()\n"
        "    return v[0]\n"
    )
    assert _rules(lint_source(src)) == ["shm-use-after-close"]


def test_copying_get_array_after_close_clean():
    src = (
        "def f(arena, desc):\n"
        "    v = arena.get_array(desc)\n"
        "    arena.close()\n"
        "    return v.sum()\n"
    )
    assert lint_source(src) == []


def test_view_used_before_close_clean():
    src = (
        "def f(arena, desc):\n"
        "    v = arena.view_array(desc)\n"
        "    total = v.sum()\n"
        "    arena.close()\n"
        "    return total\n"
    )
    assert lint_source(src) == []


def test_view_escaping_context_manager_flagged():
    src = (
        "def f(desc):\n"
        "    with ShmArena(1024) as arena:\n"
        "        v = arena.view_array(desc)\n"
        "        ok = v.sum()\n"
        "    return v.sum()\n"
    )
    findings = lint_source(src)
    assert _rules(findings) == ["shm-use-after-close"]
    assert findings[0].line == 5


def test_close_of_unrelated_object_clean():
    # only receivers known to be arenas arm the rule; file.close() doesn't
    src = (
        "def f(arena, desc, fh):\n"
        "    v = arena.view_array(desc)\n"
        "    fh.close()\n"
        "    return v.sum()\n"
    )
    assert lint_source(src) == []


# -- loop-variable-capture ----------------------------------------------------

_LOOP_PAYLOAD = (
    "def build(g, xs, out):\n"
    "    for i, x in enumerate(xs):\n"
    "        store = {{}}\n"
    "        def fn({params}):\n"
    "            store['y'] = x * 2\n"
    "            out[i] = store['y']\n"
    "        g.add_task(f't{{i}}', {handed})\n"
)


def test_loop_rebound_names_read_by_a_task_payload_flagged():
    findings = lint_source(_LOOP_PAYLOAD.format(params="", handed="fn"))
    assert _rules(findings) == ["loop-variable-capture"] * 4
    assert [f.line for f in findings] == [5, 5, 6, 6]  # store, x / i, store
    assert "`store=store`" in findings[0].message + findings[1].message


def test_loop_names_bound_as_defaults_clean():
    bound = "i=i, x=x, store=store"
    assert lint_source(_LOOP_PAYLOAD.format(params=bound, handed="fn")) == []
    # handed over inside a conditional expression, one default missing
    partly = _LOOP_PAYLOAD.format(params="i=i, x=x", handed="fn if xs else None")
    assert {f.line for f in lint_source(partly)} == {5, 6}


def test_loop_closure_not_handed_to_a_task_clean():
    src = _LOOP_PAYLOAD.format(params="", handed="None").replace(
        "g.add_task", "fn(); g.add_task"
    )
    assert lint_source(src) == []


def test_loop_lambda_payload_flagged():
    src = "for i in range(3):\n    g.add_task('t', lambda: out.append(i))\n"
    assert _rules(lint_source(src)) == ["loop-variable-capture"]
    assert lint_source(src.replace("lambda:", "lambda i=i:")) == []


def test_loop_capture_rediscovers_the_attention_chunk_bug():
    """PR 16's ``build_attention_graph`` read the per-chunk stores through
    the ``for mb`` loop's names; ``chunks > 1`` then depended on the schedule."""
    fixture = Path(__file__).resolve().parents[1] / "fixtures" / "attention_build_pr16.py.txt"
    findings = lint_source(fixture.read_text(), path=str(fixture))
    assert set(_rules(findings)) == {"loop-variable-capture"}
    flagged = {(f.message.split("`")[1], f.message.split("`")[3]) for f in findings}
    assert flagged == {
        ("fn", "qkv_store"), ("ctx_fn", "qkv_store"),
        ("ctx_fn", "ctx_store"), ("out_fn", "ctx_store"),
    }


# -- gemm-under-turn ----------------------------------------------------------

_TURN_KERNEL = (
    "def step(x, h, W, b):\n"
    "    z = {outside}\n"
    "    with activations.pointwise_turn:\n"
    "        z += b\n"
    "        {inside}\n"
    "    return z\n"
)


def test_matrix_products_under_the_turn_flagged():
    for gemm in ("z += h @ W", "z @= W", "z += np.matmul(h, W)", "z += np.dot(h, W)",
                 "z += h.dot(W)"):
        findings = lint_source(_TURN_KERNEL.format(outside="x @ W", inside=gemm))
        assert _rules(findings) == ["gemm-under-turn"], gemm
        assert findings[0].line == 5


def test_products_outside_the_turn_and_under_other_locks_clean():
    assert lint_source(_TURN_KERNEL.format(outside="x @ W + h @ W", inside="np.tanh(z, out=z)")) == []
    other_lock = _TURN_KERNEL.format(outside="x @ W", inside="z += h @ W").replace(
        "activations.pointwise_turn", "self._lock"
    )
    assert lint_source(other_lock) == []


def test_gemm_under_turn_fixture_has_its_one_finding():
    """The kernel body a first attempt put under the lock whole."""
    fixture = Path(__file__).resolve().parents[1] / "fixtures" / "gemm_under_turn.py.txt"
    findings = lint_source(fixture.read_text(), path=str(fixture))
    assert _rules(findings) == ["gemm-under-turn"]
    assert "h_prev @ W[input_size:]" in fixture.read_text().splitlines()[findings[0].line - 1]


# -- waivers ----------------------------------------------------------------


def test_same_line_waiver_suppresses():
    src = "def f(b=[]):  # lint: waive mutable-default\n    pass\n"
    assert lint_source(src) == []


def test_preceding_line_waiver_suppresses():
    src = "# lint: waive mutable-default\ndef f(b=[]):\n    pass\n"
    assert lint_source(src) == []


def test_waive_all_suppresses():
    src = "def f(b=[]):  # lint: waive all\n    pass\n"
    assert lint_source(src) == []


def test_waiver_for_other_rule_does_not_suppress():
    src = "def f(b=[]):  # lint: waive float64-creep\n    pass\n"
    assert _rules(lint_source(src)) == ["mutable-default"]


def test_syntax_error_is_a_finding():
    assert _rules(lint_source("def f(:\n")) == ["syntax-error"]


# -- whole-package gate -----------------------------------------------------


def test_repro_package_is_lint_clean():
    findings = lint_paths([str(SRC)])
    assert findings == [], "\n".join(f.describe() for f in findings)


def test_rule_registry_matches_emitted_rules():
    assert set(RULES) == {
        "mutable-default", "swallowed-exception", "float64-creep",
        "fork-unsafe-capture", "shm-use-after-close", "loop-variable-capture",
        "gemm-under-turn",
    }
