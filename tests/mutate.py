"""A mutant runner: does a test fail when a function's code is changed?

    python tests/mutate.py MODULE.FUNCTION [...] -- PYTEST_ARGS

For example:

    python tests/mutate.py synth._format_rows -- tests/test_synth.py -k "writer or Csv"
    python tests/mutate.py synth._read_canonical -- tests/test_synth.py -k "Csv or numpy_path or fifo"
    python tests/mutate.py protocol.FrameDecoder.feed -- tests/test_protocol.py

Each function is named inside `src/pulsealarm`, a method by its class. Its
mutants are small changes to its body, made with the stdlib `ast` module:

- a comparison swapped: `<` and `<=`, `>` and `>=`, `==` and `!=`,
  `is` and `is not`, `in` and `not in`;
- `+` and `-`, `<<` and `>>`, `&` and `|`, also in augmented assignments;
- `and` and `or`;
- an int constant plus one;
- a `not` dropped.

`src/` and `tests/` are copied to a temporary directory. Each mutant is
spliced, as `ast.unparse` writes the changed function, into its module's
copy, and pytest runs PYTEST_ARGS there with `-x` and a timeout. A mutant
is killed when pytest fails, timed out when it runs past the timeout, and
survives when every test passes. A mutant listed in EQUIVALENT is not run:
it cannot change what the function does. The exit status is 1 when a
mutant that is not listed survives, else 0. The file's name does not match
test_*.py, so a plain pytest run does not collect it.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Mutants that do what the function does, keyed as the runner prints them:
# `function: source line: change`, with `#k` for the k-th same change on
# that line. Each has the reason it cannot change a result.
EQUIVALENT = {
    "protocol.FrameDecoder.feed: valid = (raw[:n] == SYNC_BYTE) & (raw[6 : 6 + n] <= ADC_MAX >> 8)"
    " & (x[8 : 8 + n] == x[:n]): 8 -> 9 #3":
        "x has len(buf) = 8 + n entries when n > 0, and fewer than 9 when n is 0,"
        " so the slice end 9 + n clips to the same entries",
    "synth._read_canonical: length = _PAD + max(_BLOCK, 34)  # 34: 16 digits, `,`, 16 digits,"
    " `\\n`: 34 -> 35":
        "_PAD + 35 = 51 rounds up to the same 56-byte buffer of whole words as 50 does,"
        " and any _BLOCK above 34 is the max either way",
    "synth._read_canonical: cap = max(f.seek(0, io.SEEK_END) - len(_HEADER), 0) // 4:"
    " 0 -> 1 #2":
        "the max applies only to a file no longer than the header, and 1 // 4 is 0 // 4",
    "synth._read_canonical: out = np.empty((2, cap), np.int64): 2 -> 3":
        "a third row of out is never written or read",
    "synth._read_canonical: if widest > 9:  # a field of 1-8 digits, a span of 2-9, masks"
    " its high word to 0: > -> >=":
        "at a widest span of 9 every high word is masked by _MASK[1] or below, all 0,"
        " so it adds 0",
}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitAnd: "&", ast.BitOr: "|", ast.And: "and", ast.Or: "or",
}


def _changes(node: ast.AST):
    """(description, mutate) for each mutant of this one node; mutate takes
    a copy of the node and returns the node that replaces it."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
        swapped = _SWAPS[type(node.op)]

        def swap(n, swapped=swapped):
            n.op = swapped()
            return n
        yield f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[swapped]}", swap
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            swapped = _SWAPS[type(op)]

            def swap(n, i=i, swapped=swapped):
                n.ops[i] = swapped()
                return n
            yield f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[swapped]}", swap
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        def plus_one(n):
            n.value += 1
            return n
        yield f"{node.value} -> {node.value + 1}", plus_one
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not dropped", lambda n: n.operand


def _find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope = tree
    for name in qualname.split("."):
        scope = next((n for n in scope.body if getattr(n, "name", None) == name), None)
        if scope is None:
            raise SystemExit(f"mutate: no {qualname}")
    return scope


def mutants(name: str):
    """(key, line number, mutated module source) for each mutant of the
    function `module.qualname`."""
    module, qualname = name.split(".", 1)
    path = REPO / "src" / "pulsealarm" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    function = _find(ast.parse(source), qualname)
    first = min([function.lineno] + [d.lineno for d in function.decorator_list]) - 1
    nodes = [n for statement in function.body for n in ast.walk(statement)]
    found = sorted(((node.lineno, node.col_offset, i, change, mutate) for i, node in enumerate(nodes)
                    for change, mutate in _changes(node)), key=lambda f: f[:3])
    keys = [f"{name}: {lines[line - 1].strip()}: {change}" for line, _, _, change, _ in found]
    for k, (key, (line, _, i, _, mutate)) in enumerate(zip(keys, found)):
        if keys.count(key) > 1:  # the same change met again along the line
            key += f" #{keys[:k].count(key) + 1}"
        mutant = copy.deepcopy(function)
        target = [n for statement in mutant.body for n in ast.walk(statement)][i]
        code = ast.unparse(_Replace(target, mutate).visit(mutant))
        yield key, line, "".join(lines[:first]) + textwrap.indent(code, " " * function.col_offset) \
            + "\n" + "".join(lines[function.end_lineno:])


class _Replace(ast.NodeTransformer):
    def __init__(self, target, mutate):
        self.target, self.mutate = target, mutate

    def visit(self, node):
        if node is self.target:
            return self.mutate(node)
        return self.generic_visit(node)


def _pytest(workdir: Path, args: list[str], timeout: float | None) -> int | None:
    """pytest's exit status in workdir, or None past the timeout."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    process = subprocess.Popen(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return process.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return None


def main(argv: list[str]) -> int:
    if "--" not in argv or argv.index("--") == 0:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    names, args = argv[: argv.index("--")], argv[argv.index("--") + 1:]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        for part in "src", "tests":
            shutil.copytree(REPO / part, workdir / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(REPO / "pyproject.toml", workdir)
        start = time.perf_counter()
        if _pytest(workdir, args, None) != 0:
            print("mutate: the tests fail on the unchanged code", file=sys.stderr)
            return 2
        # a killed mutant fails early, a survivor takes the whole run
        timeout = 30 + 3 * (time.perf_counter() - start)
        counts = {"killed": 0, "survived": 0, "timed out": 0, "equivalent": 0}
        unlisted = []
        for name in names:
            module = name.split(".", 1)[0]
            target = workdir / "src" / "pulsealarm" / f"{module}.py"
            original = target.read_text()
            for key, line, source in mutants(name):
                if key in EQUIVALENT:
                    outcome = "equivalent"
                else:
                    target.write_text(source)
                    status = _pytest(workdir, args, timeout)
                    outcome = "timed out" if status is None else "killed" if status else "survived"
                    if outcome == "survived":
                        unlisted.append(key)
                counts[outcome] += 1
                print(f"{outcome:10}  {module}.py:{line}  {key}", flush=True)
            target.write_text(original)
    print(", ".join(f"{n} {outcome}" for outcome, n in counts.items()))
    for key in unlisted:
        print(f"survived, not in EQUIVALENT: {key}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
