"""The call census (``tools/census.py``): its allowlist and its recorder.

The full census runs the product's entry points under a trace function
(``make census``, ~25 min); here the recorder runs one small program that
calls one function on a worker thread and one in a child process.
"""

import os
import sys
import textwrap

import pytest

from tools import census

TOY = textwrap.dedent('''\
    import subprocess, sys, threading

    def on_worker_thread():
        return 1

    def in_child_process():
        return 2

    def never_called():
        return 3

    def main():
        worker = threading.Thread(target=on_worker_thread)
        worker.start()
        worker.join()
        subprocess.check_call([sys.executable, "-c", "import toy; toy.in_child_process()"])
''')


def test_every_allowlist_entry_names_a_def_in_the_package():
    defs = {}
    for path, _, qual, _ in census.functions(census.PACKAGE):
        defs.setdefault(os.path.relpath(path, census.PACKAGE), set()).add(qual)
    assert 0 < len(census.ALLOWLIST) <= 25
    for entry, reason in census.ALLOWLIST.items():
        module, _, qual = entry.partition("::")
        assert module in defs, entry
        assert not qual or any(q == qual or q.startswith(qual + ".") for q in defs[module]), entry
        assert reason.strip() and "\n" not in reason, entry


@pytest.fixture
def toy(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "toy.py").write_text(TOY)
    return package


def test_the_recorder_sees_threads_and_child_processes_but_not_the_uncalled(toy, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    calls = census.record([[sys.executable, "-c", "import toy; toy.main()"]],
                          toy, str(out), pythonpath=[str(toy)])
    called = {qual for path, first, qual, _ in census.functions(toy) if (path, first) in calls}
    assert called == {"main", "on_worker_thread", "in_child_process"}


def test_an_allowlisted_class_covers_its_methods():
    allow = {"serve/x.py::Klass": "why", "core/y.py": "why"}
    assert census.allowed("serve/x.py", "Klass.method", allow)
    assert census.allowed("serve/x.py", "Klass", allow)
    assert not census.allowed("serve/x.py", "Klassic.method", allow)
    assert not census.allowed("serve/z.py", "Klass.method", allow)
    assert census.allowed("core/y.py", "anything.at_all", allow)
