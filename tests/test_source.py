"""Checks on the package source itself."""

import ast
import json
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lilklucb"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent


def _nodes(*types, where=lambda node: True) -> list[str]:
    """``file:line`` of every node of the given types, and accepted by ``where``, in the source."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, types) and where(node)
    ]


def test_no_assert_statements():
    """An invariant checked only by ``assert`` is gone under ``python -O``."""
    assert _nodes(ast.Assert) == []


def test_no_dataclasses_import():
    """No package module imports ``dataclasses``.

    Its import (which loads ``inspect`` and ``ast``) and its code generation
    took about a third of a scalar command's start.  Records are
    ``lilklucb.Frozen`` classes or NamedTuples.
    """

    def imports_dataclasses(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module == "dataclasses"
        return any(alias.name == "dataclasses" for alias in node.names)

    assert _nodes(ast.Import, ast.ImportFrom, where=imports_dataclasses) == []


def test_no_global_statements():
    """No function rebinds module state: a worker process would keep its own copy."""
    assert _nodes(ast.Global, ast.Nonlocal) == []


def test_records_change_only_in_their_init():
    """No ``object.__setattr__`` outside an ``__init__``, but ``threshold``'s table.

    A record's fields are set once, in its ``__init__``; the one later write
    is ``confidence.threshold`` replacing a scheme's ``threshold_table``
    whole, so a reader sees a complete table either way.
    """
    allowed = ("confidence.py", "threshold", "'threshold_table'")
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            name = getattr(scope, "name", None)
            if name != "__init__" and (path.name, name, ast.unparse(node.args[1])) != allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# The variables that set OpenBLAS's thread count: ``__init__.py`` may test and
# set these, and only these, when it loads numpy.
BLAS_THREAD_VARIABLES = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}


def _environment_accesses(filename: str, source: str) -> list[str]:
    """``filename:line`` of every environment access in ``source`` that is not allowed.

    Outside ``__init__.py`` none is.  There, an ``os.environ`` subscript or
    ``in`` test is allowed when its key can only be one of
    BLAS_THREAD_VARIABLES: a literal, or a name bound once, to such literals
    or to a loop over them.
    """
    names = {"environ", "getenv", "putenv"}
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    stores, values = Counter(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] += 1
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            values[getattr(node.targets[0], "id", None)] = node.value
        elif isinstance(node, (ast.For, ast.comprehension)):
            values[getattr(node.target, "id", None)] = node.iter

    def strings(node) -> set | None:
        if isinstance(node, ast.Constant):
            return {node.value} if isinstance(node.value, str) else None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            parts = [strings(elt) for elt in node.elts]
            return None if None in parts else set().union(*parts)
        if isinstance(node, ast.Name) and stores[node.id] == 1 and node.id in values:
            return strings(values[node.id])
        return None

    def allowed(node) -> bool:
        parent = parents[node]
        if isinstance(parent, ast.Subscript) and parent.value is node:
            key = parent.slice
        elif (isinstance(parent, ast.Compare) and parent.comparators == [node]
              and isinstance(parent.ops[0], (ast.In, ast.NotIn))):
            key = parent.left
        else:
            return False
        keys = strings(key)
        return filename == "__init__.py" and keys is not None and keys <= BLAS_THREAD_VARIABLES

    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os" and node.attr in names
            and not (node.attr == "environ" and allowed(node)))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names))
    ]


def test_no_environment_reads():
    """Every input is a flag or a --config key: none comes from the environment.

    Numpy's thread count is not an input: ``__init__.py`` may test and set
    the BLAS thread variables when it loads numpy.  Any other access, and any
    access outside ``__init__.py``, fails.
    """
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [access for path in paths
             for access in _environment_accesses(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("filename, source, allowed", [
    ("__init__.py", "os.environ['OMP_NUM_THREADS'] = '1'", True),
    ("__init__.py", "del os.environ['OPENBLAS_NUM_THREADS']", True),
    ("__init__.py", "v = ('GOTO_NUM_THREADS', 'OMP_NUM_THREADS')\n"
                    "any(n in os.environ for n in v)", True),
    ("cli.py", "os.environ['OMP_NUM_THREADS'] = '1'", False),
    ("cli.py", "'OMP_NUM_THREADS' in os.environ", False),
    ("__init__.py", "os.environ['LILKLUCB_SEED']", False),
    ("__init__.py", "os.environ.get('OMP_NUM_THREADS')", False),
    ("__init__.py", "os.getenv('OMP_NUM_THREADS')", False),
    ("__init__.py", "from os import environ", False),
    ("__init__.py", "any(n in os.environ for n in ('OMP_NUM_THREADS', 'HOME'))", False),
    ("__init__.py", "k = 'OMP_NUM_THREADS'\nk = 'HOME'\nos.environ[k]", False),
    ("__init__.py", "def f(k):\n    return k in os.environ", False),
])
def test_environment_check_allows_only_blas_thread_variables(filename, source, allowed):
    assert (_environment_accesses(filename, source) == []) is allowed


def test_no_fromiter_calls():
    """Arrays are built by NumPy calls, not by a Python loop feeding ``np.fromiter``."""

    def calls_fromiter(node) -> bool:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "fromiter"

    assert _nodes(ast.Call, where=calls_fromiter) == []


# By module: the bandit loops and the helpers they call per pull or per
# snapshot, and the scalar path of one bound-table miss.  A NumPy call there
# converts Python lists first (microseconds per call), and NumPy scalar
# arithmetic is several times slower than Python floats'.
LOOP_FUNCTIONS = {
    "bandit.py": {"ucb_race", "lil_klucb", "_first_pulls", "_argmax_random_tie",
                  "_best_arm_in_top_k"},
    "confidence.py": {"upper_bound", "lower_bound", "bound_side"},
    "kl_math.py": {"_invert", "_kl"},
}


def test_no_numpy_in_the_loops():
    """The loops, their per-pull and per-snapshot helpers and a bound miss do not name ``np``."""
    found = []
    for filename, functions in LOOP_FUNCTIONS.items():
        tree = ast.parse((SRC / filename).read_text(encoding="utf-8"))
        bodies = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in functions]
        assert {node.name for node in bodies} == functions
        found += [f"{filename}:{node.lineno}" for body in bodies for node in ast.walk(body)
                  if isinstance(node, ast.Name) and node.id == "np"]
    assert found == []


def _names(tree: ast.AST) -> Counter:
    """How often ``tree`` names each identifier: in a Name, an Attribute or an exact string."""
    return Counter(
        node.id if isinstance(node, ast.Name) else
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        or (isinstance(node, ast.Constant) and isinstance(node.value, str))
    )


def test_every_src_function_has_a_caller():
    """Every top-level function and class of the package is named outside its own definition.

    Only the package and ``perfbench`` count as callers: code that only the
    tests call belongs in the tests.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    assert named
    unused = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items() if path.parent == SRC
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and named[node.name] == _names(node)[node.name]
    ]
    assert unused == []


def test_only_kl_math_names_the_newton_rules():
    """Every bracketed-Newton loop lives in ``kl_math``: no other module names its iteration cap."""
    owners = [path.name for path in sorted(SRC.glob("*.py"))
              if _names(ast.parse(path.read_text(encoding="utf-8")))["NEWTON_MAX_ITER"]]
    assert owners == ["kl_math.py"]


def test_only_the_coverage_module_names_the_counter_layout():
    """The coverage sampler's counters live in ``coverage``: no other module names their layout."""
    owners = [path.name for path in sorted(SRC.glob("*.py"))
              if any(_names(ast.parse(path.read_text(encoding="utf-8")))[name]
                     for name in ("_GAMMA", "_STRIDE", "_SCREEN"))]
    assert owners == ["coverage.py"]


def test_no_unused_imports():
    """Every name an import binds in the package or the tests is named again in its file.

    ``from __future__`` imports are exempt: they bind nothing used by name.
    """
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = _names(tree)
        unused += [
            f"{path.name}:{node.lineno}:{bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            for bound in [alias.asname or alias.name.partition(".")[0]]
            if not named[bound]
        ]
    assert unused == []


def test_ci_runs_the_tier_1_command():
    """The workflow runs ROADMAP's tier-1 command verbatim, on the requires-python floor and up."""
    yaml = pytest.importorskip("yaml")
    root = SRC.parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    assert set(workflow[True]) == {"push", "pull_request"}  # YAML 1.1 reads the key `on` as True
    job = workflow["jobs"]["tests"]
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                        (root / "ROADMAP.md").read_text(encoding="utf-8")).group(1)
    runs = [step.get("run") for step in job["steps"]]
    assert runs[-2:] == ['pip install -e ".[test]"', command]
    floor = re.search(r'requires-python = ">=([\d.]+)"', (root / "pyproject.toml").read_text())
    assert job["strategy"]["matrix"]["python-version"][0] == floor.group(1)


def test_ci_smokes_every_benchmark_workload():
    """The workflow runs each workload of BENCHMARK.json once and checks its ``correct`` flag."""
    yaml = pytest.importorskip("yaml")
    root = SRC.parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    (script,) = [step["run"] for step in workflow["jobs"]["benchmark-smoke"]["steps"]
                 if "perfbench/run.py" in step.get("run", "")]
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    loop = re.search(r"for workload in ([\w\- ]+); do", script).group(1).split()
    assert loop == [workload["name"] for workload in benchmark["workloads"]]
    assert "--seconds 0 --trace 0" in script and '"correct": true' in script


def test_ci_checks_the_scalar_goldens_without_installing():
    """A job installs nothing and checks every ``simulate``, ``replay`` and ``identify`` golden.

    Those commands need only the standard library, so the job shows that
    they start and write their golden bytes without NumPy or the test tools.
    It checks them twice: as they are, and under ``python -O``, which strips
    every ``assert``, so that no rule they rely on may live in one.
    """
    yaml = pytest.importorskip("yaml")
    from golden_cases import CASES

    root = SRC.parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    job = workflow["jobs"]["scalar-goldens"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert not any("install" in run for run in runs)
    scalar = {name for name, argv in CASES.items() if argv[0] in ("simulate", "replay", "identify")}
    prefixes = ["PYTHONPATH=src python tests/golden_cases.py --check ",
                "PYTHONPATH=src python -O tests/golden_cases.py --check "]
    assert len(runs) == len(prefixes)
    for command, prefix in zip(runs, prefixes):
        assert command.startswith(prefix)
        assert sorted(command[len(prefix):].split()) == sorted(scalar)
    floor = re.search(r'requires-python = ">=([\d.]+)"', (root / "pyproject.toml").read_text())
    assert job["strategy"]["matrix"]["python-version"][0] == floor.group(1)


def test_every_ci_job_has_a_timeout():
    """A job that cannot stop fails at its own limit, not at GitHub's six-hour default."""
    yaml = pytest.importorskip("yaml")
    root = SRC.parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    limits = {name: job.get("timeout-minutes") for name, job in workflow["jobs"].items()}
    assert limits == {"tests": 30, "scalar-goldens": 15, "benchmark-smoke": 15}
