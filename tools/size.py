"""Print the size of the package: its line count and its settable values.

Usage: python3 tools/size.py [package directory, default src/pcretract]

Lines are the `wc -l` total of the package's .py files.  Settable values
are the parameters of module-level functions and of methods (without self,
cls, *args and **kwargs), plus the fields of dataclasses: each is a value a
caller could vary.  The script only reports; it never fails a build.
"""

import ast
import pathlib
import sys


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _parameters(fn) -> tuple:
    """(parameters, how many have a default) of a function, without self,
    cls, *args and **kwargs."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if names[:1] in (["self"], ["cls"]):
        names = names[1:]
    defaults = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return len(names), defaults


def settable_values(tree: ast.Module) -> tuple:
    """(parameters, of them with a default, dataclass fields) of a module."""
    params = defaults = fields = 0
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = [node]
        if isinstance(node, ast.ClassDef):
            members = node.body
            if _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        for fn in members:
            if isinstance(fn, functions):
                p, d = _parameters(fn)
                params += p
                defaults += d
    return params, defaults, fields


def main(argv) -> int:
    package = pathlib.Path(argv[1] if len(argv) > 1 else "src/pcretract")
    files = sorted(package.glob("*.py"))
    lines = sum(len(f.read_bytes().splitlines()) for f in files)
    params = defaults = fields = 0
    for f in files:
        p, d, n = settable_values(ast.parse(f.read_text(encoding="utf-8")))
        params, defaults, fields = params + p, defaults + d, fields + n
    print(f"{package}: {lines:,} lines in {len(files)} files")
    print(f"settable values: {params + fields} "
          f"({params} parameters, {defaults} with a default; {fields} dataclass fields)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
