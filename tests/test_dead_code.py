"""Dead-function guard: every function and method of the package is named somewhere else.

Each function or method defined under src/acx (dunder methods aside) must
have its name appear outside its own definition: in src/acx, in tests/ or in
bench/tracer.py, which patches traced names by their text.  A name that
appears nowhere else is code nobody calls.

A stricter second check counts only the package itself: a name that only
tests or the tracer name is code the package does not use.  Its exceptions
are listed: the entry points that outside callers use by design, and the
names that wait on the bench tracer.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acx"


def defined_functions(source: str) -> list[str]:
    """The names of the functions and methods a module defines, dunders excluded."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreferenced(package: dict[str, str], others: list[str]) -> list[str]:
    """module:name of each function of the package whose name occurs only in its own definitions.

    package maps module names to their source; others are the other texts searched.
    """
    defined = {module: defined_functions(source) for module, source in package.items()}
    definitions = Counter(name for names in defined.values() for name in names)
    # every word of every text, counted once: a name is used where it occurs as a whole word
    words = Counter(word for text in [*package.values(), *others] for word in re.findall(r"\w+", text))
    return [
        f"{module}:{name}"
        for module, names in defined.items()
        for name in sorted(set(names))
        if words[name] <= definitions[name]
    ]


def read_sources():
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    # this file names no package function, and its own scratch helper must not count as a use
    tests = [path for path in sorted((ROOT / "tests").glob("*.py")) if path.name != Path(__file__).name]
    others = [path.read_text(encoding="utf-8") for path in tests]
    others.append((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return package, others


def test_every_function_is_named_elsewhere():
    package, others = read_sources()
    assert unreferenced(package, others) == []


def test_guard_finds_an_unused_helper():
    """A helper nobody calls is reported, and calling it once clears it."""
    package, others = read_sources()
    before = unreferenced(package, others)
    package["scratch"] = "def _scratch_helper_nobody_calls(x):\n    return x\n"
    assert unreferenced(package, others) == before + ["scratch:_scratch_helper_nobody_calls"]
    others.append("_scratch_helper_nobody_calls(1)\n")
    assert unreferenced(package, others) == before


# outside callers use these by design: the console script of pyproject.toml
ENTRY_POINTS = {"cli:main"}
# Only tests and bench/tracer.py name these.  They wait on the in-package trace files (ROADMAP item 10):
# bench/tracer.py patches each traced name through vars(owner)[attr], so deleting one breaks
# `bench/run.py --trace 1` and tests/test_bench_tracer.py until a benchmark change drops it from the tracer.
WAITING_ON_THE_TRACER = {
    "cohomology:real_one_forms",
    "cohomology:refined_parts",
    "linalg:subspace_from_vectors",
    "metric:apply_star",
    "metric:laplacian_block",
}


def test_every_function_is_named_in_the_package():
    package, _ = read_sources()
    defined = {f"{module}:{name}" for module, source in package.items() for name in defined_functions(source)}
    assert ENTRY_POINTS <= defined and WAITING_ON_THE_TRACER <= defined
    assert set(unreferenced(package, [])) - ENTRY_POINTS == WAITING_ON_THE_TRACER


def test_strict_guard_finds_a_helper_only_the_tests_call():
    """A helper that only a test calls is reported by the package-only check, not by the first one."""
    package, others = read_sources()
    package["scratch"] = "def _scratch_helper_for_tests(x):\n    return x\n"
    others.append("_scratch_helper_for_tests(1)\n")
    assert "scratch:_scratch_helper_for_tests" not in unreferenced(package, others)
    assert "scratch:_scratch_helper_for_tests" in unreferenced(package, [])
