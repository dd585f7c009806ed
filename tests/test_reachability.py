"""``src/realchar`` holds what a command runs.

The commands below run in process under ``sys.setprofile``, which records
every function of the package that is entered.  The functions never entered
must be exactly ``NOT_REACHED``, each kept in ``src/`` for the reason given;
a function that only the tests call belongs in ``tests/``.  The same holds
one level down: the dataclass fields that the package never reads must be
exactly ``UNREAD_FIELDS``, and a parameter that defaults to None must be
given both None and a value by the commands, apart from ``ONE_SIDED``: a
parameter the commands always give a value, or always leave None, selects a
path that only the tests take.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import pytest

import realchar
from realchar.cli import main

SRC = Path(realchar.__file__).parent

NOT_REACHED = {
    "classify.classification_verdict.<locals>.violation": (
        "builds a Violation, which only a counterexample or a bug reaches"
    ),
    "perm.Permutation.identity": "the generator catalog gives C1 and S1",
}

UNREAD_FIELDS: dict[str, str] = {}

ONE_SIDED = {
    "cli.main.argv": "the console script passes nothing, so argparse reads sys.argv",
}

COMMANDS = [
    ["scan", "--machine"],
    ["scan", "{manifest}"],
    ["verify", "SL2_5oC4"],
    ["table", "Q8"],
    ["table", "--exact", "A5"],
    ["table", "--exact", "SL2_5oC4"],
    ["info", "A5xC4"],
    ["info", "S5"],
    # Q8 splits by one random combination of its 5 class matrices, and a
    # quintic at a prime above about 20000 takes the root splitting, not
    # the evaluation
    ["--prime", "20021", "verify", "Q8"],
    ["verify", "{a5}"],
    ["--cap-order", "100", "info", "aff64_L2_8"],
    ["verify", "{malformed}"],
]


def _functions() -> dict[tuple[str, int, str], str]:
    """Every named function of the package, keyed as the profiler sees its
    code (file, first line, name), with its qualified name in the module."""
    out = {}
    for path in SRC.glob("*.py"):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue  # comprehensions and lambdas are part of their function
                if const.co_flags & inspect.CO_OPTIMIZED:
                    name = prefix + const.co_name
                    out[(str(path), const.co_firstlineno, const.co_name)] = f"{path.stem}.{name}"
                    stack.append((const, name + ".<locals>."))
                else:  # a class body
                    stack.append((const, prefix + const.co_name + "."))
    return out


def _none_defaults() -> dict[tuple[str, int, str], list[str]]:
    """The parameters that default to None of every function of the package
    that has any, keyed as in ``_functions``."""
    out = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [
                *zip(positional[len(positional) - len(args.defaults) :], args.defaults),
                *zip(args.kwonlyargs, args.kw_defaults),
            ]
            names = [a.arg for a, d in defaults if isinstance(d, ast.Constant) and d.value is None]
            if names:
                # a function's code starts at its first decorator
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first, node.name)] = names
    return out


def _run(commands, watched):
    """The code of every function entered while ``main`` runs the commands,
    whether each parameter in ``watched`` (code key -> names) was given None
    or a value, keyed (code key, name), and the exit codes."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("realchar"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()  # a memo hit enters nothing
    entered = set()
    given = {(key, name): set() for key, names in watched.items() for name in names}

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            entered.add(key)
            for name in watched.get(key, ()):
                given[key, name].add("None" if frame.f_locals[name] is None else "a value")

    codes = []
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                codes.append(main(argv))
    finally:
        sys.setprofile(previous)
    return entered, given, codes


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """``COMMANDS`` run once under the profiler, as ``_run`` returns them,
    watching every parameter that defaults to None."""
    tmp = tmp_path_factory.mktemp("commands")
    files = {
        "manifest": "A5\nQ8\n",
        "a5": "degree 5\n(1,2,3)\n(1,2,3,4,5)\n",
        "malformed": "degree 3\n(1,2\n",
    }
    paths = {}
    for name, text in files.items():
        (tmp / name).write_text(text)
        paths[name] = str(tmp / name)
    commands = [[arg.format(**paths) for arg in argv] for argv in COMMANDS]
    return _run(commands, _none_defaults())


def test_every_function_but_the_kept_ones_is_reached(profiled):
    entered, _, codes = profiled
    assert codes == [0] * 10 + [2, 2]
    functions = _functions()
    assert {name for key, name in functions.items() if key not in entered} == set(NOT_REACHED)


def test_every_parameter_defaulting_to_none_is_given_both(profiled):
    """A parameter that defaults to None is given None by one command and a
    value by another, apart from ``ONE_SIDED``."""
    _, given, _ = profiled
    functions = _functions()
    assert given and {key for key, _ in given} <= functions.keys()
    one_sided = {
        f"{functions[key]}.{name}": sorted(kinds)
        for (key, name), kinds in given.items()
        if kinds != {"None", "a value"}
    }
    assert one_sided.keys() == ONE_SIDED.keys(), one_sided


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_but_the_kept_ones_is_read():
    """Every field of a ``@dataclass`` in ``src/`` is read somewhere in
    ``src/``, apart from ``UNREAD_FIELDS``.

    A read is an attribute load ``x.<name>`` anywhere in the package, and
    the match is by name only: a field counts as read when any attribute of
    that name is, whatever object it is read from.
    """
    fields, read = {}, set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[f"{path.stem}.{node.name}.{stmt.target.id}"] = stmt.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert fields
    assert {field for field, name in fields.items() if name not in read} == set(UNREAD_FIELDS)
