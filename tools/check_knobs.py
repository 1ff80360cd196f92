#!/usr/bin/env python3
"""List the keyword defaults of torusma that no call ever sets, the
functions of torusma that nothing references and the dataclass fields that
nothing reads.

    python3 tools/check_knobs.py

Every function defined under src/torusma is read with `ast`, and so is every
call under src/, tools/ and bench/. A parameter with a default counts as
set when some call of a function of the same name passes it, positionally
or by keyword. Tests do not count: a default that only a test changes is a
constant the commands never vary. Calls are matched by bare name
(`f(...)`), by attribute name (`mod.f(...)`, `obj.f(...)`) and through
`import ... as` aliases. A call that unpacks `*args` sets every positional
parameter, one that unpacks `**kwargs` every keyword. Methods skip
`self`/`cls` when counting positional arguments.

A function (dunders aside) counts as reached when its name is referenced
under src/, tools/ or bench/, outside its own body and the package's
`__init__.py`: as an identifier (through `import ... as` aliases), as an
attribute, or as a string constant that is a dotted name, one reference per
part. Tests do not count, and the check is not transitive: a function that
only an unreached one references counts as reached.

A field of a `@dataclass` under src/torusma counts as read when some
attribute load under src/, tests/, tools/ or bench/ has its name
(`obj.field`, by name only, whatever obj is). Here tests count: a field a
test reads is a diagnostic, one nothing reads is dead weight.

A name a module imports counts as unused when no identifier in that module
names it. Every .py file under src/, tests/ and tools/ is scanned, except
`from __future__` imports and the package's `__init__.py`, whose imports are
its public re-exports.

Prints one `module.function: parameter` line per default that no call sets,
one `unreferenced: module.function` line (`Class.method` for methods) per
function nothing references, one `unread: Class.field` line per dataclass
field nothing reads and one `unused import: path: name` line per import
nothing reads, and exits 1 if there is any; a default no caller changes is
a constant, a function no command reaches is dead, a field nothing reads is
a value computed for no one, and an import nothing reads is noise.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusma"
REACH_DIRS = tuple(ROOT / d for d in ("src", "tools", "bench"))
READ_DIRS = REACH_DIRS + (ROOT / "tests",)
IMPORT_DIRS = tuple(ROOT / d for d in ("src", "tests", "tools"))
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _functions(tree):
    """(enclosing class name or None, node) for every def, nested ones too."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((owner, node))
                visit(node.body, None)

    visit(tree.body, None)
    return found


def _aliases(tree):
    """{asname: imported name} over the `import ... as` clauses of a file."""
    return {a.asname: a.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names if a.asname}


def _defaulted_params(tree, module):
    """(label, function name, [(param, positional index or None)]) per def."""
    found = []
    for owner, node in _functions(tree):
        a = node.args
        positional = a.posonlyargs + a.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if owner is not None and not static else 0
        first = len(positional) - len(a.defaults)
        params = [(p.arg, i - skip)
                  for i, p in enumerate(positional) if i >= first]
        params += [(p.arg, None)
                   for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
        if params:
            found.append((f"{module}.{node.name}", node.name, params))
    return found


def _calls(tree):
    """(called name, positional count, keyword names or None for **kwargs)."""
    aliases = _aliases(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        npos = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                else len(node.args))
        kws = [k.arg for k in node.keywords]
        out.append((name, npos, None if None in kws else set(kws)))
    return out


def never_set(package=PACKAGE, caller_dirs=REACH_DIRS):
    """Sorted `module.function: parameter` labels of defaults no call sets."""
    defs = []
    for path in sorted(package.glob("*.py")):
        defs += _defaulted_params(ast.parse(path.read_text()), path.stem)
    calls = {}
    for root in caller_dirs:
        for path in sorted(root.rglob("*.py")):
            for name, npos, kws in _calls(ast.parse(path.read_text())):
                calls.setdefault(name, []).append((npos, kws))
    unset = []
    for label, name, params in defs:
        for param, index in params:
            if not any((index is not None and npos > index)
                       or kws is None or param in kws
                       for npos, kws in calls.get(name, ())):
                unset.append(f"{label}: {param}")
    return sorted(unset)


def _references(node, aliases):
    """Counter of the names referenced inside `node`."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[aliases.get(sub.id, sub.id)] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and _DOTTED_NAME.fullmatch(sub.value)):
            names.update(sub.value.split("."))
    return names


def unreferenced(package=PACKAGE, reach_dirs=REACH_DIRS):
    """Sorted labels of the package's functions that nothing references."""
    skip = (package / "__init__.py").resolve()
    refs = Counter()
    for root in reach_dirs:
        for path in sorted(root.rglob("*.py")):
            if path.resolve() != skip:
                tree = ast.parse(path.read_text())
                refs += _references(tree, _aliases(tree))
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _aliases(tree)
        for owner, node in _functions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] == _references(node, aliases)[name]:
                dead.append(f"{owner or path.stem}.{name}")
    return sorted(dead)


def _is_dataclass(node):
    """Whether a ClassDef carries @dataclass or @dataclass(...)."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def unread_fields(package=PACKAGE, read_dirs=READ_DIRS):
    """Sorted `Class.field` labels of dataclass fields no attribute load reads."""
    loaded = set()
    for root in read_dirs:
        for path in sorted(root.rglob("*.py")):
            loaded |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [f"{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)
                           and item.target.id not in loaded]
    return sorted(unread)


def _imported(tree):
    """Names the imports of a module bind, `from __future__` aside."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    return bound


def unused_imports(dirs=IMPORT_DIRS, root=ROOT):
    """Sorted `path: name` labels of imported names their module never reads."""
    unused = []
    for base in dirs:
        for path in sorted(base.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            rel = path.relative_to(root).as_posix()
            unused += [f"{rel}: {name}" for name in _imported(tree) - read]
    return sorted(unused)


def main():
    unset = never_set()
    dead = unreferenced()
    unread = unread_fields()
    unused = unused_imports()
    for line in unset:
        print(line)
    for label in dead:
        print(f"unreferenced: {label}")
    for label in unread:
        print(f"unread: {label}")
    for label in unused:
        print(f"unused import: {label}")
    return 1 if unset or dead or unread or unused else 0


if __name__ == "__main__":
    sys.exit(main())
