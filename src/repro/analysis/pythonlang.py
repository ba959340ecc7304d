"""Static checks for Python suggestions.

Python is the one language whose suggestions we can *execute* against the
numerical oracles (see :mod:`repro.sandbox`); the static layer here only
establishes that the suggestion is syntactically valid Python, defines a
callable entry point for the kernel, and does not reference obviously
undefined helper functions at module scope.

Every fact comes from one :class:`ParsedSuggestion` per distinct suggestion
text: one ``ast.parse``, one ``ast.walk`` and one ``compile`` of the tree,
shared by the checkers below and by the sandbox (which executes the
compiled module instead of compiling the text again).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from types import CodeType

__all__ = [
    "ParsedSuggestion",
    "check_structure",
    "clear_parse_cache",
    "find_entry_function",
    "parse_suggestion",
    "undefined_call_names",
]

#: Module roots the sandbox knows how to provide.
KNOWN_MODULE_ROOTS = {"numpy", "numba", "cupy", "pycuda", "math", "cupyx", "pykokkos"}


@dataclass(frozen=True)
class ParsedSuggestion:
    """Everything the checkers and the sandbox need from one Python text.

    Immutable: one instance is cached per distinct text and shared by every
    analyzer and sandbox thread in the process.
    """

    #: What :func:`check_structure` reports (empty for a well-formed module).
    structure_issues: tuple[str, ...]
    #: Plain-name calls nothing in the module defines (see
    #: :func:`undefined_call_names`).
    undefined_calls: frozenset[str]
    #: Names of the module's top-level functions, in source order.
    top_level_functions: tuple[str, ...]
    #: The module compiled from the parsed tree; ``None`` when the text does
    #: not parse or the tree does not compile.
    module: CodeType | None
    #: ``repr`` of the exception compiling a parsed tree raised, if any.
    compile_error: str | None

    def entry_function(self, kernel: str) -> str | None:
        """See :func:`find_entry_function`."""
        functions = self.top_level_functions
        if not functions:
            return None
        kernel = kernel.lower()
        for name in functions:
            if name.lower() == kernel:
                return name
        public = [name for name in functions if not name.startswith("_")]
        for name in public:
            if kernel in name.lower():
                return name
        if len(public) == 1:
            return public[0]
        return None


_UNPARSEABLE = ParsedSuggestion(
    structure_issues=("not valid Python (syntax error)",),
    undefined_calls=frozenset(),
    top_level_functions=(),
    module=None,
    compile_error=None,
)

#: Process-wide, pure: suggestion text -> its parse.  Emptied by
#: :func:`clear_parse_cache` (which ``clear_verdict_memo`` calls).
_PARSED: dict[str, ParsedSuggestion] = {}


def clear_parse_cache() -> None:
    """Forget every cached :class:`ParsedSuggestion`."""
    _PARSED.clear()


def parse_suggestion(code: str) -> ParsedSuggestion:
    """The :class:`ParsedSuggestion` of ``code``, parsed once per process."""
    parsed = _PARSED.get(code)
    if parsed is None:
        parsed = _PARSED[code] = _parse(code)
    return parsed


def _names_in(target: ast.AST) -> list[str]:
    return [sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def _parse(code: str) -> ParsedSuggestion:
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return _UNPARSEABLE
    has_function = False
    import_issues: list[str] = []
    defined: set[str] = set(dir(builtins))
    called: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            has_function = True
            defined.add(node.name)
            defined.update(arg.arg for arg in node.args.args)
            defined.update(arg.arg for arg in node.args.kwonlyargs)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
                module = None
            else:
                defined.update(alias.asname or alias.name for alias in node.names)
                module = node.module
            for name in [module] if module else [alias.name for alias in node.names]:
                root = (name or "").split(".")[0]
                if root and root not in KNOWN_MODULE_ROOTS:
                    import_issues.append(f"imports unavailable module {root!r}")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defined.update(_names_in(target))
        elif isinstance(node, (ast.For, ast.comprehension)):
            defined.update(_names_in(node.target))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    issues = ([] if has_function else ["no function definition found"]) + import_issues
    try:
        module, compile_error = compile(tree, "<suggestion>", "exec"), None
    except Exception as exc:  # e.g. 'return' outside function
        module, compile_error = None, repr(exc)
    return ParsedSuggestion(
        structure_issues=tuple(issues),
        undefined_calls=frozenset(called - defined),
        top_level_functions=tuple(
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        ),
        module=module,
        compile_error=compile_error,
    )


def check_structure(code: str) -> list[str]:
    """Syntax validity, presence of a function definition and known imports."""
    return list(parse_suggestion(code).structure_issues)


def find_entry_function(code: str, kernel: str) -> str | None:
    """Name of the function implementing ``kernel`` in ``code``.

    Only top-level functions can be called from the sandbox namespace.
    Preference order: exact kernel name, a name containing the kernel name
    (excluding private helpers), then the single public function if there is
    exactly one.
    """
    return parse_suggestion(code).entry_function(kernel)


def undefined_call_names(code: str) -> set[str]:
    """Plain-name calls that are neither defined in the module, imported,
    assigned, builtins, nor parameters of the enclosing functions."""
    return set(parse_suggestion(code).undefined_calls)
