"""Every public function, class and method in ``src/homext`` is named
somewhere in the program (``src/``, ``demos/`` or ``perfbench/``) outside
its own definition, so no helper is left that only the tests reach; and
every option does something: each CLI option is read by its command, and
each defaulted parameter is passed by some call in the program."""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "demos", "perfbench")


def _public_definitions(tree):
    """(qualified name, bare name, first line, last line) of the public
    module-level functions and classes and the public methods of those
    classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((f"{node.name}.{item.name}", item.name,
                                item.lineno, item.end_lineno))
    return out


def _names_used(tree):
    """(name, line, bare) of every identifier, attribute, imported name and
    identifier-like string constant in the tree; ``bare`` marks a plain
    identifier, which a method is not reached by."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, False))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], node.lineno, False))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.append((node.value, node.lineno, False))
    return out


def unreached_public_names():
    uses = {}
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for name, line, bare in _names_used(ast.parse(path.read_text())):
                uses.setdefault(name, []).append((path, line, bare))
    missing = []
    for path in sorted((ROOT / "src" / "homext").glob("*.py")):
        for qual, name, lo, hi in _public_definitions(ast.parse(path.read_text())):
            method = "." in qual
            if not any((p != path or not lo <= line <= hi) and not (method and bare)
                       for p, line, bare in uses.get(name, ())):
                missing.append(f"{path.stem}.{qual}")
    return missing


def test_every_public_name_is_reached_from_the_program():
    assert unreached_public_names() == []


# ---------------------------------------------------------------------------
# every option does something
# ---------------------------------------------------------------------------

def unread_cli_options():
    """``command --option`` for every option a subparser accepts that its
    command function never reads as ``args.<dest>``."""
    from homext import cli
    tree = ast.parse((ROOT / "src" / "homext" / "cli.py").read_text())
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            reads[node.name] = {n.attr for n in ast.walk(node)
                                if isinstance(n, ast.Attribute)
                                and isinstance(n.value, ast.Name) and n.value.id == "args"}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    missing = []
    for name, parser in sub.choices.items():
        read = reads[parser.get_default("fn").__name__]
        for action in parser._actions:
            if action.dest != "help" and action.dest not in read:
                missing.append(f"{name} {action.option_strings[0]}")
    return missing


def test_every_cli_option_is_read_by_its_command():
    assert unread_cli_options() == []


# Defaulted parameters that no program call passes and that stay:
#  - the parameters of the ``verify.suite_*`` functions (instance and
#    sample counts, the lists of p and m), which the acceptance criteria
#    set;
#  - every ``seed``, so that each run is reproducible from its seed;
#  - ``cli.main(argv)``, the entry point's hook for an argument list.
# ``dinkelbach_ratiodca``'s options count as passed through
# ``dinkelbach_multistart(**kw)``: a keyword given to a function that
# forwards ``**kw`` to another is given to that one too.  Defaults bound
# in closures (loop variables) are not scanned: only module-level
# functions and the public methods and constructors of module-level
# classes are.
PARAMETER_EXEMPT = {("cli", "main", "argv")}


def _defaulted_parameters(tree):
    """(qualified name, name it is called by, parameter, position in a
    call or None for keyword-only, first line, last line) per defaulted
    parameter of a module-level function or a public method or
    constructor."""
    out = []

    def add(fn, qual, called_as, skip_self):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            out.append((qual, called_as, arg.arg, i - skip_self, fn.lineno, fn.end_lineno))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((qual, called_as, arg.arg, None, fn.lineno, fn.end_lineno))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    add(item, node.name, node.name, 1)
                elif not item.name.startswith("_"):
                    add(item, f"{node.name}.{item.name}", item.name, 0 if static else 1)
    return out


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _program_calls():
    """callee name -> [(path, line, positional count, keywords)] over the
    program, with keywords also credited to every function that a callee
    forwards its ``**kw`` to."""
    trees = [(path, ast.parse(path.read_text()))
             for d in PROGRAM_DIRS for path in sorted((ROOT / d).rglob("*.py"))]
    forwards = {}
    for _, tree in trees:
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.args.kwarg is not None:
                for call in ast.walk(fn):
                    if isinstance(call, ast.Call) and any(
                            k.arg is None and isinstance(k.value, ast.Name)
                            and k.value.id == fn.args.kwarg.arg for k in call.keywords):
                        forwards.setdefault(fn.name, set()).add(_callee(call))
    calls = {}
    for path, tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            npos = float("inf") if any(isinstance(a, ast.Starred) for a in call.args) \
                else len(call.args)
            kws = {k.arg for k in call.keywords if k.arg is not None}
            name = _callee(call)
            calls.setdefault(name, []).append((path, call.lineno, npos, kws))
            for target in forwards.get(name, ()):
                calls.setdefault(target, []).append((path, call.lineno, 0, kws))
    return calls


def unpassed_parameters():
    """``module.function(parameter)`` for every defaulted parameter that no
    call in the program passes, outside the exemptions above."""
    calls = _program_calls()
    missing = []
    for path in sorted((ROOT / "src" / "homext").glob("*.py")):
        for fn, called_as, param, pos, lo, hi in _defaulted_parameters(
                ast.parse(path.read_text())):
            if param == "seed" or fn.startswith("suite_") \
                    or (path.stem, fn, param) in PARAMETER_EXEMPT:
                continue
            if not any((p != path or not lo <= line <= hi)
                       and (param in kws or pos is not None and npos > pos)
                       for p, line, npos, kws in calls.get(called_as, ())):
                missing.append(f"{path.stem}.{fn}({param})")
    return missing


def test_every_defaulted_parameter_is_passed_by_the_program():
    assert unpassed_parameters() == []
