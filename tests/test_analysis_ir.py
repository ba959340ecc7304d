"""Tests for the parse-once analysis layer.

* The Python facts of :class:`~repro.analysis.pythonlang.ParsedSuggestion`
  equal the original three-parse checkers on every corpus snippet and every
  suggestion of the default-seed stock and extended grids (the reference
  implementations live here, and only here).
* ``clear_verdict_memo`` leaves every analysis cache cold: the next
  analysis parses the Python text and the embedded CUDA-C source again.
* The base-verdict memo: one text requested under two models executes once,
  and both verdicts equal a fresh direct analysis.
* (Re-)registering a geometry profile empties the hazard findings memo.
* Threads sharing the cold caches get the verdicts a private analyzer gets.
"""

from __future__ import annotations

import ast
import builtins
import sys
import threading

import pytest

import repro.sandbox.cuda_c.interpreter as interpreter
from repro.analysis import hazards, pythonlang
from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.api import Session
from repro.codex.config import DEFAULT_SEED
from repro.corpus.store import default_corpus
from repro.extensions import install_extended_grid, uninstall_extended_grid
from repro.sandbox.executor import sandbox_execution_count

# ---------------------------------------------------------------------------
# Reference implementations: the checkers as they were before the IR, each
# parsing the text on its own.
# ---------------------------------------------------------------------------


def _parse_or_none(code):
    try:
        return ast.parse(code)
    except SyntaxError:
        return None


def reference_check_structure(code):
    issues = []
    tree = _parse_or_none(code)
    if tree is None:
        issues.append("not valid Python (syntax error)")
        return issues
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    if not functions:
        issues.append("no function definition found")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            names = [module] if module else [alias.name for alias in node.names]
            for name in names:
                root = (name or "").split(".")[0]
                if root and root not in pythonlang.KNOWN_MODULE_ROOTS:
                    issues.append(f"imports unavailable module {root!r}")
    return issues


def reference_find_entry_function(code, kernel):
    tree = _parse_or_none(code)
    if tree is None:
        return None
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
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


def reference_undefined_call_names(code):
    tree = _parse_or_none(code)
    if tree is None:
        return set()
    defined = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            defined.update(arg.arg for arg in node.args.args)
            defined.update(arg.arg for arg in node.args.kwonlyargs)
        elif isinstance(node, ast.Import):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            defined.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defined.add(sub.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    defined.add(sub.id)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    return {name for name in called if name not in defined}


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


#: Hand-written texts for branches the corpus and the grids may not reach.
EDGE_CASES = [
    ("import torch\nimport jax.numpy as jnp\nfrom . import helpers\nx = 1\n", "axpy"),
    ("from scipy import sparse\nimport os, numpy\n"
     "def outer(a, *, scale):\n    def axpy_inner(b):\n        return helper(b)\n"
     "    return [axpy_inner(v) for v in scale(a)]\n", "axpy"),
    ("def _private(a):\n    return a\ndef run_gemv(a):\n    return _private(a)\n"
     "def other(a):\n    return a\n", "gemv"),
    ("def _only_private(a):\n    return a\n", "cg"),
    ("for i, (j, k) in enumerate(pairs):\n    total = combine(i, j, k)\n"
     "    parts = [g(total) for g in handlers]\n", "axpy"),
    ("def axpy(a, x, y)\n    return a * x + y\n", "axpy"),
]


def _grid_texts(results):
    return {(code, result.cell.kernel) for result in results for code in result.suggestions}


@pytest.fixture(scope="module")
def all_texts():
    """(text, kernel) of every corpus snippet and default-seed grid suggestion,
    stock and extended."""
    texts = set(EDGE_CASES) | {(snippet.code, snippet.kernel) for snippet in default_corpus()}
    with Session(seed=DEFAULT_SEED) as session:
        texts |= _grid_texts(session.full_results())
    install_extended_grid()
    try:
        texts |= {(snippet.code, snippet.kernel) for snippet in default_corpus()}
        with Session(seed=DEFAULT_SEED) as session:
            texts |= _grid_texts(session.full_results())
    finally:
        uninstall_extended_grid()
    return sorted(texts)


@pytest.fixture
def cuda_template(corpus):
    code = corpus.template("python", "python.cupy", "axpy").code
    assert hazards.extract_cuda_sources(code)
    return code


@pytest.fixture
def parse_counts(monkeypatch):
    """Counts calls to ``ast.parse`` and to the CUDA-C parser."""
    counts = {"python": 0, "cuda": 0}
    real_ast_parse = ast.parse
    real_cuda_parse = interpreter.parse_cuda_source

    def ast_parse(*args, **kwargs):
        counts["python"] += 1
        return real_ast_parse(*args, **kwargs)

    def cuda_parse(*args, **kwargs):
        counts["cuda"] += 1
        return real_cuda_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", ast_parse)
    monkeypatch.setattr(interpreter, "parse_cuda_source", cuda_parse)
    return counts


@pytest.fixture
def cold():
    clear_verdict_memo()
    yield
    clear_verdict_memo()


AXPY = dict(language="python", kernel="axpy")


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestParsedSuggestionEquivalence:
    def test_ir_facts_equal_the_reference_checkers(self, all_texts):
        python_texts = 0
        for code, kernel in all_texts:
            parsed = pythonlang.parse_suggestion(code)
            assert list(parsed.structure_issues) == reference_check_structure(code), code
            assert set(parsed.undefined_calls) == reference_undefined_call_names(code), code
            assert parsed.entry_function(kernel) == reference_find_entry_function(code, kernel)
            assert pythonlang.check_structure(code) == reference_check_structure(code)
            assert pythonlang.undefined_call_names(code) == reference_undefined_call_names(code)
            assert pythonlang.find_entry_function(code, kernel) == (
                reference_find_entry_function(code, kernel)
            )
            python_texts += parsed.module is not None
        # Non-vacuous: the grids and the corpus hold many valid Python texts.
        assert python_texts > 100

    def test_compile_error_matches_compiling_the_text(self):
        code = "return 1\ndef axpy(a, x, y):\n    return a * x + y\n"
        parsed = pythonlang.parse_suggestion(code)
        assert parsed.module is None
        with pytest.raises(SyntaxError) as excinfo:
            compile(code, "<suggestion>", "exec")
        assert parsed.compile_error == repr(excinfo.value)


class TestColdPerSeed:
    def test_clear_verdict_memo_makes_the_next_analysis_parse_again(
        self, cold, cuda_template, parse_counts
    ):
        analyzer = SuggestionAnalyzer()
        executions = sandbox_execution_count()
        first = analyzer.analyze(cuda_template, requested_model="python.cupy", **AXPY)
        assert sandbox_execution_count() - executions == 1
        # Parsed once, shared by the checkers, the hazard layer and the sandbox.
        assert parse_counts == {"python": 1, "cuda": 1}

        clear_verdict_memo()
        second = analyzer.analyze(cuda_template, requested_model="python.cupy", **AXPY)
        assert parse_counts == {"python": 2, "cuda": 2}
        assert second == first

    def test_warm_caches_parse_nothing(self, cold, cuda_template, parse_counts):
        SuggestionAnalyzer().analyze(cuda_template, requested_model="python.cupy", **AXPY)
        before = dict(parse_counts)
        # A private analyzer misses the verdict memos but not the parses.
        SuggestionAnalyzer(shared_memo=False).analyze(
            cuda_template, requested_model="python.cupy", **AXPY
        )
        hazards.static_findings_for(cuda_template, "python", "axpy")
        interpreter.CudaModule(hazards.extract_cuda_sources(cuda_template)[0])
        assert parse_counts == before


class TestCrossModelReuse:
    def test_one_text_under_two_models_executes_once(self, cold, cuda_template):
        analyzer = SuggestionAnalyzer()
        executions = sandbox_execution_count()
        requested = analyzer.analyze(cuda_template, requested_model="python.cupy", **AXPY)
        other = analyzer.analyze(cuda_template, requested_model="python.numpy", **AXPY)
        assert sandbox_execution_count() - executions == 1

        assert requested.uses_requested_model and requested.is_correct
        assert not other.uses_requested_model and other.uses_other_model
        for verdict, model in ((requested, "python.cupy"), (other, "python.numpy")):
            fresh = SuggestionAnalyzer(shared_memo=False).analyze(
                cuda_template, requested_model=model, **AXPY
            )
            assert verdict == fresh

    def test_private_analyzers_do_not_share_base_verdicts(self, cold, cuda_template):
        SuggestionAnalyzer().analyze(cuda_template, requested_model="python.cupy", **AXPY)
        calls = []

        def executor(code, kernel):
            calls.append(kernel)
            return True, []

        custom = SuggestionAnalyzer(python_executor=executor)
        custom.analyze(cuda_template, requested_model="python.numpy", **AXPY)
        custom.analyze(cuda_template, requested_model="python.numba", **AXPY)
        # Not served by the shared memo; its own memo spans models.
        assert calls == ["axpy"]


class TestProfileInvalidation:
    PROFILE = {
        "require_all": ["threads = 256"],
        "require_any": [],
        "grid": (1, 1, 1),
        "block": (256, 1, 1),
        "buffer_sizes": {"x": 64, "y": 64},
        "scalar_args": {"n": 64},
    }

    @pytest.fixture
    def probe_family(self):
        yield "ir_probe"
        hazards.unregister_profile("ir_probe")

    @staticmethod
    def _oob(findings):
        return {f["verdict"] for f in findings if f["kind"] == "out-of-bounds"}

    def test_reregistering_a_profile_empties_the_findings_memo(
        self, cuda_template, probe_family, monkeypatch
    ):
        analyzed = []
        real_analyze = hazards.analyze_kernel
        monkeypatch.setattr(
            hazards, "analyze_kernel",
            lambda definition, **kw: analyzed.append(definition.name) or real_analyze(
                definition, **kw
            ),
        )
        hazards.register_profile(probe_family, self.PROFILE)
        safe = hazards.static_findings_for(cuda_template, "python", probe_family)
        assert hazards.static_findings_for(cuda_template, "python", probe_family) == safe
        assert analyzed == ["axpy"]  # memoized
        assert self._oob(safe) == {"SAFE"}

        hazards.register_profile(probe_family, self.PROFILE)  # same profile again
        assert hazards.static_findings_for(cuda_template, "python", probe_family) == safe
        assert analyzed == ["axpy", "axpy"]

        # Same memo key, different geometry: a stale memo would still say SAFE.
        hazards.unregister_profile(probe_family)
        hazards.register_profile(probe_family, {**self.PROFILE, "scalar_args": {"n": 128}})
        grown = hazards.static_findings_for(cuda_template, "python", probe_family)
        assert "HAZARD" in self._oob(grown)


class TestSharedCachesUnderThreads:
    def test_concurrent_cold_analyses_match_private_ones(self, cold, corpus):
        """More threads than cores, a tiny switch interval, every shared
        cache cold: each verdict equals a private sequential analysis.
        Static-only analyzers forced onto the shared memos, so the threads
        share the verdict, base-verdict, parse and findings caches."""
        jobs = []
        for language, models in (
            ("python", ("python.numpy", "python.cupy", "python.pycuda")),
            ("cpp", ("cpp.openmp", "cpp.cuda")),
            ("julia", ("julia.threads", "julia.cuda")),
        ):
            snippets = [s for s in corpus.snippets if s.language == language][:30]
            jobs += [(snippet, model) for snippet in snippets for model in models]

        def analyze(analyzer, snippet, model):
            return analyzer.analyze(
                snippet.code, language=snippet.language, kernel=snippet.kernel,
                requested_model=model,
            )

        private = SuggestionAnalyzer(execute_python=False, shared_memo=False)
        expected = [analyze(private, snippet, model) for snippet, model in jobs]
        clear_verdict_memo()
        got: list = [None] * len(jobs)
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                analyzer = SuggestionAnalyzer(execute_python=False, shared_memo=True)
                for index in range(offset, len(jobs), 2):  # two threads per job
                    got[index] = analyze(analyzer, *jobs[index])
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n % 2,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == expected
