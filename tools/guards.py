"""Guard scan: the no-op mutant of every guard of the package, against tier-1.

    python tools/guards.py

A guard is an ``if`` whose body is a single ``raise`` (its mutant tests
``False``) or a ``_require(cond, ...)`` call (its mutant requires ``True``),
found by parsing each module of ``src/resilient_sse``.  Each mutant runs in
a temporary copy of the checkout, as in ``tools/mutants.py``, killer-first:
against the tests that killed the listed mutants and the earlier guards of
the same module, then, if it survives them, against all of tier-1 with
``-x``.  A guard survives when all of tier-1 passes.  The script prints each
survivor, then the count and the time; the exit status is 1 if a guard
survives or a listed killer fails unmutated.  It is not a CI step: it runs
one mutant per guard, about a hundred.
"""

import ast
import itertools
import sys
import time
from pathlib import Path

from mutants import MUTANTS, ROOT, checkout_copy, killer_first, killers_fail, mutated

PACKAGE = "src/resilient_sse"


def guards(module: Path) -> list:
    """(line, guard text, mutated source) for every guard of the file `module`."""
    source = module.read_bytes()
    # ast columns count UTF-8 bytes, so the offsets are into the bytes
    starts = [0, *itertools.accumulate(map(len, source.splitlines(keepends=True)))]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
            cond, noop = node.test, b"False"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_require" and node.args):
            cond, noop = node.args[0], b"True"
        else:
            continue
        start = starts[cond.lineno - 1] + cond.col_offset
        end = starts[cond.end_lineno - 1] + cond.end_col_offset
        text = source[start:end].decode()
        found.append((node.lineno, text, (source[:start] + noop + source[end:]).decode()))
    return sorted(found)


def main() -> int:
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / PACKAGE).glob("*.py"))
    killers = {path: [] for path in modules}
    for path, _, _, killer, _ in MUTANTS:
        if killer not in killers[path]:
            killers[path].append(killer)
    begin, count, survivors = time.perf_counter(), 0, []
    with checkout_copy() as (copy, env):
        if killers_fail(copy, env):
            return 1
        for path in modules:
            original = (copy / path).read_text()
            for line, text, source in guards(copy / path):
                count += 1
                with mutated(copy, path, original, source):
                    result, by, _ = killer_first(copy, env, killers[path])
                if result == "passed":
                    survivors.append(f"{path}:{line}: {text}")
                    print(f"SURVIVED {path}:{line}: {text}", flush=True)
                elif by and by not in killers[path]:
                    killers[path].append(by)
    minutes = (time.perf_counter() - begin) / 60
    print(f"{len(survivors)} of {count} guards survive ({minutes:.1f} min)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
