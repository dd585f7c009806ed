"""``src/realchar`` holds what a command runs.

The commands below run in process under ``sys.setprofile``, which records
every function of the package that is entered.  The functions never entered
must be exactly ``NOT_REACHED``, each kept in ``src/`` for the reason given;
a function that only the tests call belongs in ``tests/``.  The same holds
one level down: the dataclass fields that the package never reads must be
exactly ``UNREAD_FIELDS``.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import realchar
from realchar.cli import main

SRC = Path(realchar.__file__).parent

NOT_REACHED = {
    "classify.classification_verdict.<locals>.violation": (
        "builds a Violation, which only a counterexample or a bug reaches"
    ),
    "perm.Permutation.identity": "the generator catalog gives C1 and S1",
}

UNREAD_FIELDS = {
    "classify.Verdict.witness_row": "the row of the witness character, which the tests check",
}


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


def _entered(commands: list[list[str]]) -> tuple[set[tuple[str, int, str]], list[int]]:
    """The code of every function entered while ``main`` runs the commands,
    and their exit codes."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("realchar"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()  # a memo hit enters nothing
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

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
    return entered, codes


def test_every_function_but_the_kept_ones_is_reached(tmp_path):
    manifest = tmp_path / "names.txt"
    manifest.write_text("A5\nQ8\n")
    a5 = tmp_path / "a5.grp"
    a5.write_text("degree 5\n(1,2,3)\n(1,2,3,4,5)\n")
    malformed = tmp_path / "bad.grp"
    malformed.write_text("degree 3\n(1,2\n")
    cache = ["--cache-dir", str(tmp_path / "cache")]
    commands = [
        ["scan", "--machine"],
        ["scan", str(manifest)],
        [*cache, "verify", "SL2_5oC4"],
        [*cache, "verify", "SL2_5oC4"],  # warm: the table is read back
        ["table", "--exact", "A5"],
        ["table", "--exact", "SL2_5oC4"],
        ["info", "A5xC4"],
        ["info", "S5"],
        # low degrees at a prime in the tens of thousands take the
        # root splitting, not the evaluation
        ["--prime", "10009", "verify", "Q8"],
        ["verify", str(a5)],
        ["--cap-order", "100", "info", "aff64_L2_8"],
        ["verify", str(malformed)],
    ]
    entered, codes = _entered(commands)
    assert codes == [0] * 10 + [2, 2]
    functions = _functions()
    assert {name for key, name in functions.items() if key not in entered} == set(NOT_REACHED)


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
