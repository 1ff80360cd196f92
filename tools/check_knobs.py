#!/usr/bin/env python3
"""List the keyword defaults of torusma that no call ever sets.

    python3 tools/check_knobs.py

Every function defined under src/torusma is read with `ast`, and so is every
call under src/, tests/, tools/ and bench/. A parameter with a default
counts as set when some call of a function of the same name passes it,
positionally or by keyword. Calls are matched by bare name (`f(...)`), by
attribute name (`mod.f(...)`, `obj.f(...)`) and through `import ... as`
aliases. A call that unpacks `*args` sets every positional parameter, one
that unpacks `**kwargs` every keyword. Methods skip `self`/`cls` when
counting positional arguments.

Prints one `module.function: parameter` line per default that no call sets
and exits 1 if there is any; a default no caller changes is a constant.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusma"
CALLER_DIRS = tuple(ROOT / d for d in ("src", "tests", "tools", "bench"))


def _defaulted_params(tree, module):
    """(label, function name, [(param, positional index or None)]) per def."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if in_class and not static else 0
                first = len(positional) - len(a.defaults)
                params = [(p.arg, i - skip)
                          for i, p in enumerate(positional) if i >= first]
                params += [(p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None]
                if params:
                    found.append((f"{module}.{node.name}", node.name, params))
                visit(node.body, False)

    visit(tree.body, False)
    return found


def _calls(tree):
    """(called name, positional count, keyword names or None for **kwargs)."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname}
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


def never_set(package=PACKAGE, caller_dirs=CALLER_DIRS):
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


def main():
    unset = never_set()
    for line in unset:
        print(line)
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
