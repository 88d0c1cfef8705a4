"""The reach tool's accounting (``tools/reach.py``) on a tiny package.

The fixture has one function of each kind the tool must classify: a
called and an uncalled one, a decorated one (its code starts at the
decorator line), one reached only from a worker thread, one reached only
in a pool worker process, and nested functions reached with and without
their parent.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("reach_tool", ROOT / "tools" / "reach.py")
    module = sys.modules["reach_tool"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_tool()

FIXTURE = textwrap.dedent('''\
    import functools
    import threading
    from concurrent.futures import ProcessPoolExecutor


    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    def called():
        return 1


    def uncalled():
        return 2


    @decorate
    def decorated():
        return 3


    def thread_only():
        return 4


    def pool_only():
        return 5


    def outer():
        def inner():
            return 6
        return inner()


    def unused_outer():
        def unused_inner():
            return 7
        return unused_inner


    class Box:
        @property
        def value(self):
            return 8

        def method(self):
            return 9


    def main():
        called()
        decorated()
        outer()
        Box().value
        worker = threading.Thread(target=thread_only)
        worker.start()
        worker.join()


    def main_with_pool():
        with ProcessPoolExecutor(1) as pool:
            assert pool.submit(pool_only).result() == 5
''')

IN_PROCESS = {
    "main", "called", "decorated", "decorate.<locals>.wrapper", "thread_only",
    "outer", "outer.<locals>.inner", "Box.value",
}
NEVER = {
    "uncalled", "decorate", "pool_only", "unused_outer", "unused_outer.<locals>.unused_inner",
    "Box.method", "main_with_pool",
}


@pytest.fixture
def package(tmp_path):
    """The fixture as ``src/repro/mod.py`` under a checkout-shaped root."""
    package_dir = tmp_path / "src" / "repro"
    package_dir.mkdir(parents=True)
    (package_dir / "__init__.py").write_text("")
    (package_dir / "mod.py").write_text(FIXTURE)
    return tmp_path


def _reached(found, keys):
    return {found[key].qualname for key in keys if key in found}


def test_functions_key_by_first_decorator_line(package):
    found = reach.functions(package / "src" / "repro")
    by_name = {f.qualname: f for f in found.values()}
    assert set(by_name) == IN_PROCESS | NEVER
    lines = FIXTURE.splitlines()
    assert lines[by_name["decorated"].first - 1] == "@decorate"
    assert lines[by_name["Box.value"].first - 1].strip() == "@property"
    # A parent does not own its nested function's lines.
    assert by_name["outer"].lines == 2 and by_name["outer.<locals>.inner"].lines == 2


def test_recorder_classifies_in_process_calls(package):
    spec = importlib.util.spec_from_file_location(
        "reach_fixture", package / "src" / "repro" / "mod.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with reach.Recorder() as recorder:
        module.main()
    found = reach.functions(package / "src" / "repro")
    assert _reached(found, recorder.keys(package / "src" / "repro")) == IN_PROCESS


def test_session_follows_pool_workers(package, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    session = reach.Session(package, work, timeout_s=60.0)
    session.run(["-c", "import repro.mod; repro.mod.main_with_pool()"])
    assert session.log[-1][1] == 0
    found = reach.functions(package / "src" / "repro")
    # Importing the module runs the decorator in the child too.
    assert _reached(found, reach.load_reached(session.out)) == {
        "decorate", "main_with_pool", "pool_only",
    }


def test_check_reports_unlisted_and_stale_entries(package):
    found = reach.functions(package / "src" / "repro")
    reached = {key for key, f in found.items() if f.qualname in IN_PROCESS}
    allowlist = {f"mod.py::{name}": "kept" for name in NEVER - {"uncalled"}}
    allowlist["mod.py::gone"] = "stale"
    problems = reach.check(found, reached, allowlist)
    assert len(problems) == 2
    assert problems[0].startswith("unreached and not allowlisted: mod.py::uncalled")
    assert problems[1] == "allowlisted but not found: mod.py::gone"


def test_abstract_methods_are_not_counted(tmp_path):
    (tmp_path / "base.py").write_text(textwrap.dedent('''\
        import abc
        from abc import ABC, abstractmethod


        class Base(ABC):
            @abstractmethod
            def declared(self):
                """Never runs."""

            @abc.abstractmethod
            def also_declared(self):
                """Never runs either."""

            def concrete(self):
                return 1
    '''))
    assert {f.qualname for f in reach.functions(tmp_path).values()} == {"Base.concrete"}
