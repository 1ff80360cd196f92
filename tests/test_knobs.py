"""tools/check_knobs.py: every keyword default in torusma is set by some call,
every function of torusma is referenced outside the tests, every dataclass
field is read somewhere, and no module imports a name it never reads."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_knobs.py"
_spec = importlib.util.spec_from_file_location("check_knobs", TOOL)
check_knobs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_knobs)


def test_every_default_is_set_by_a_call():
    assert check_knobs.never_set() == []


def test_reports_defaults_no_call_sets(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "class K:\n    def m(self, y=0, z=1):\n        pass\n")
    callers = tmp_path / "callers"
    callers.mkdir()
    (callers / "use.py").write_text(
        "from pkg.mod import f as run\n"
        "import pkg.mod\n"
        "run(0, 5)\n"
        "pkg.mod.f(0, d=4)\n"
        "K().m(7)\n"
        "g(**{})\n")
    # b is set through the alias, d through the attribute call, x by
    # **kwargs and y positionally after self; c and z never are
    assert check_knobs.never_set(pkg, (pkg, callers)) == ["mod.f: c", "mod.m: z"]


def test_every_function_is_referenced():
    assert check_knobs.unreferenced() == []


def test_reports_functions_nothing_references(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .mod import f, g, h, K\n")
    (pkg / "mod.py").write_text(
        "def f():\n    pass\n"
        "def g():\n    pass\n"
        "def h():\n    pass\n"
        "def unused():\n    return unused() or h()\n"
        "class K:\n"
        "    def __init__(self):\n        pass\n"
        "    def m(self):\n        pass\n"
        "    def n(self):\n        pass\n")
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "use.py").write_text(
        "from pkg.mod import g as run\n"
        "run()\n"
        "obj.m()\n"
        "LAYERS = ('mod.f', 'K')\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("from pkg.mod import unused\nunused()\nK().n()\n")
    # g is reached through an alias, m as an attribute call and f by a
    # string; the recursion of `unused`, __init__.py and tests count for
    # nothing, and h counts as reached by `unused` although nothing reaches it
    assert check_knobs.unreferenced(pkg, (tmp_path / "src", tools)) == [
        "K.n", "mod.unused"]


def test_every_dataclass_field_is_read():
    assert check_knobs.unread_fields() == []


def test_reports_fields_nothing_reads(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n    x: float\n    y: int = 0\n    z: str = ''\n"
        "    def total(self):\n        return self.x\n"
        "@dataclasses.dataclass\n"
        "class B:\n    w: float\n    v: float\n"
        "class Plain:\n    u: float\n"
        "def make():\n    a = A(1.0)\n    a.z = 's'\n    return a\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("def test_b(b):\n    assert b.w\n")
    # x is read in a method and w by a test; y is never loaded, z is only
    # stored, v is never touched, and Plain is not a dataclass
    assert check_knobs.unread_fields(pkg, (tmp_path / "src", tests)) == [
        "A.y", "A.z", "B.v"]


def test_no_module_imports_a_name_it_never_reads():
    assert check_knobs.unused_imports() == []


def test_reports_imports_nothing_reads(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .mod import f, g\n")
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "import sys\n"
        "from math import pi, tau as two_pi\n"
        "from json import *\n"
        "def f():\n    return np.zeros(1) + pi\n"
        "def g():\n    import re\n    return os.path.sep\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "import pytest\nfrom pkg.mod import f, g\n\ndef test_f():\n    f()\n")
    # __future__, a star import and __init__.py's re-exports never count;
    # `import os.path` binds os, read as os.path.sep; an alias counts by the
    # name it binds; a function-local import counts like any other
    assert check_knobs.unused_imports((tmp_path / "src", tests), tmp_path) == [
        "src/pkg/mod.py: re", "src/pkg/mod.py: sys", "src/pkg/mod.py: two_pi",
        "tests/test_mod.py: g", "tests/test_mod.py: pytest"]
