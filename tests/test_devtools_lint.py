"""The ``repro lint`` AST invariant checker.

Each rule family gets a fixture project in ``tmp_path``: a positive hit,
a clean pass, and a ``noqa`` suppression.  The RPL3xx tests additionally
lint *copies of the real profile files* and mutate them — deleting a
required override or growing an un-protocoled method must fire — so the
drift checker is exercised against the actual protocol, not a toy.  The
final tests lint this repository itself: the tree must be clean.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.devtools.lint import (
    RULES,
    RULES_BY_CODE,
    LintConfigError,
    SuppressionError,
    expand_rule_selector,
    parse_suppressions,
    run_lint,
)
from repro.devtools.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]

PROFILE_FILES = (
    "src/repro/core/profiles/base.py",
    "src/repro/core/profiles/list_backend.py",
    "src/repro/core/profiles/tree_backend.py",
    "src/repro/core/profiles/array_backend.py",
)

PROTOCOL_CONFIG = """
[tool.repro-lint.protocol]
base = "src/repro/core/profiles/base.py::ProfileBackend"
backends = [
    "src/repro/core/profiles/list_backend.py::ListProfile",
    "src/repro/core/profiles/tree_backend.py::TreeProfile",
    "src/repro/core/profiles/array_backend.py::ArrayProfile",
]
[tool.repro-lint.protocol.require-override]
"src/repro/core/profiles/array_backend.py::ArrayProfile" = ["try_reserve"]
"""


def make_project(tmp_path: Path, files: Dict[str, str], config: str = "") -> Path:
    """Write a throwaway project: a pyproject with ``config`` appended to
    an empty ``[tool.repro-lint]`` table, plus dedented source files."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint]\n" + textwrap.dedent(config)
    )
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def codes(report) -> List[str]:
    return [violation.code for violation in report.violations]


# ---------------------------------------------------------------------------
# RPL1xx determinism
# ---------------------------------------------------------------------------

WALLCLOCK_SRC = """
    import random
    import time
    from datetime import datetime

    def stamp():
        started = time.time()
        when = datetime.now()
        jitter = random.random()
        rng = random.Random()
        return started, when, jitter, rng

    def order():
        for item in {3, 1, 2}:
            yield item
"""


def test_determinism_positive(tmp_path):
    project = make_project(
        tmp_path,
        {"engine/sim.py": WALLCLOCK_SRC},
        config='determinism-paths = ["engine"]\n',
    )
    found = codes(run_lint([project / "engine"]))
    assert found.count("RPL101") == 2  # time.time, datetime.now
    assert found.count("RPL102") == 2  # random.random, seedless Random
    assert found.count("RPL103") == 1  # bare set iteration


def test_determinism_out_of_scope_is_clean(tmp_path):
    project = make_project(
        tmp_path,
        {"tools/sim.py": WALLCLOCK_SRC},
        config='determinism-paths = ["engine"]\n',
    )
    assert run_lint([project / "tools"]).clean


def test_determinism_clean_pass(tmp_path):
    project = make_project(
        tmp_path,
        {
            "engine/sim.py": """
                import random
                import time

                def run(seed):
                    gauge = time.perf_counter()
                    rng = random.Random(seed)
                    for item in sorted({3, 1, 2}):
                        rng.shuffle([item])
                    return gauge
            """
        },
        config='determinism-paths = ["engine"]\n',
    )
    assert run_lint([project / "engine"]).clean


def test_determinism_alias_resolution(tmp_path):
    project = make_project(
        tmp_path,
        {
            "engine/sim.py": """
                import time as clock
                from os import urandom as entropy

                def stamp():
                    return clock.time(), entropy(8)
            """
        },
        config='determinism-paths = ["engine"]\n',
    )
    assert codes(run_lint([project / "engine"])) == ["RPL101", "RPL101"]


def test_determinism_inline_noqa(tmp_path):
    project = make_project(
        tmp_path,
        {
            "engine/sim.py": """
                import time

                def stamp():
                    return time.time()  # repro: noqa RPL101 -- log banner only
            """
        },
        config='determinism-paths = ["engine"]\n',
    )
    assert run_lint([project / "engine"]).clean


# ---------------------------------------------------------------------------
# RPL2xx int-grid exactness
# ---------------------------------------------------------------------------


def test_exactness_module_scope(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/kernel.py": """
                def half(t):
                    scale = 0.5
                    ratio = t / 2
                    t /= 3
                    return float(t) + scale + ratio
            """
        },
        config='int-kernel-modules = ["src/kernel.py"]\n',
    )
    found = codes(run_lint([project / "src"]))
    assert found.count("RPL201") == 1
    assert found.count("RPL202") == 2  # BinOp and AugAssign division
    assert found.count("RPL203") == 1


def test_exactness_function_scope_only(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/engine.py": """
                class Engine:
                    def hot(self, t):
                        return t / 2

                    def report(self, t):
                        return t / 2
            """
        },
        config='int-kernel-functions = ["src/engine.py::Engine.hot"]\n',
    )
    report = run_lint([project / "src"])
    assert codes(report) == ["RPL202"]
    assert report.violations[0].line == 4  # the leading newline is line 1


@pytest.mark.parametrize("entry", [
    "src/engine.py::Engine._no_such_loop",   # scope renamed or deleted
    "src/gone.py::Engine.hot",               # module deleted
])
def test_stale_kernel_scope_is_a_config_error(tmp_path, entry):
    project = make_project(
        tmp_path,
        {"src/engine.py": """
            class Engine:
                def hot(self, t):
                    return t // 2
        """},
        config=f'int-kernel-functions = ["src/engine.py::Engine.hot", "{entry}"]\n',
    )
    with pytest.raises(LintConfigError, match="int-kernel scope"):
        run_lint([project / "src"])


def test_exactness_region_suppression(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/kernel.py": """
                def mixed(t):
                    exact = t // 2
                    # repro: noqa-begin RPL2xx -- float gauge accounting
                    gauge = t / 2
                    gauge += 1.0
                    # repro: noqa-end RPL2xx
                    leak = t / 4
                    return exact, gauge, leak
            """
        },
        config='int-kernel-modules = ["src/kernel.py"]\n',
    )
    report = run_lint([project / "src"])
    assert codes(report) == ["RPL202"]  # only the division outside the region
    assert report.violations[0].line == 8


def test_unterminated_region_is_an_error(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/kernel.py": """
                # repro: noqa-begin RPL2xx -- never closed
                x = 1
            """
        },
    )
    report = run_lint([project / "src"])
    assert not report.clean
    assert "never closed" in report.errors[0]


# ---------------------------------------------------------------------------
# RPL3xx backend-protocol drift (fixture copies of the real files)
# ---------------------------------------------------------------------------


@pytest.fixture()
def profile_copy(tmp_path):
    """A throwaway project holding copies of the real profile sources."""
    for rel in PROFILE_FILES:
        destination = tmp_path / rel
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text((REPO_ROOT / rel).read_text())
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint]\n" + PROTOCOL_CONFIG
    )
    return tmp_path


def _delete_method(path: Path, class_name: str, method: str) -> None:
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and child.name == method:
                    lines = source.splitlines(keepends=True)
                    start = child.lineno - 1
                    if child.decorator_list:
                        start = child.decorator_list[0].lineno - 1
                    del lines[start : child.end_lineno]
                    path.write_text("".join(lines))
                    return
    raise AssertionError(f"{class_name}.{method} not found in {path}")


def _insert_method(path: Path, class_name: str, text: str) -> None:
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            lines = source.splitlines(keepends=True)
            lines.insert(node.body[0].lineno - 1, text)
            path.write_text("".join(lines))
            return
    raise AssertionError(f"{class_name} not found in {path}")


def test_protocol_copies_are_aligned(profile_copy):
    assert run_lint([profile_copy / "src"]).clean


def test_deleting_required_override_fires_rpl304(profile_copy):
    array = profile_copy / "src/repro/core/profiles/array_backend.py"
    _delete_method(array, "ArrayProfile", "try_reserve")
    assert "RPL304" in codes(run_lint([profile_copy / "src"]))


def test_unprotocoled_public_method_fires_rpl303(profile_copy):
    array = profile_copy / "src/repro/core/profiles/array_backend.py"
    _insert_method(
        array, "ArrayProfile", "    def shiny_new_surface(self):\n        return 0\n"
    )
    report = run_lint([profile_copy / "src"])
    assert "RPL303" in codes(report)
    assert any("shiny_new_surface" in v.message for v in report.violations)


def test_deleting_primitive_fires_rpl301(profile_copy):
    lst = profile_copy / "src/repro/core/profiles/list_backend.py"
    _delete_method(lst, "ListProfile", "area")
    report = run_lint([profile_copy / "src"])
    assert "RPL301" in codes(report)
    assert any("area()" in v.message for v in report.violations)


def test_signature_drift_fires_rpl302(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/base.py": """
                class Proto:
                    def area(self, start, end=None):
                        raise NotImplementedError
            """,
            "src/impl.py": """
                class Impl:
                    def area(self, begin, end=None):
                        return 0
            """,
        },
        config="""
            [tool.repro-lint.protocol]
            base = "src/base.py::Proto"
            backends = ["src/impl.py::Impl"]
        """,
    )
    report = run_lint([project / "src"])
    assert codes(report) == ["RPL302"]
    assert "(begin, end=...)" in report.violations[0].message


def test_broken_protocol_scope_is_a_config_error(tmp_path):
    project = make_project(
        tmp_path,
        {"src/base.py": "class Other:\n    pass\n"},
        config="""
            [tool.repro-lint.protocol]
            base = "src/base.py::Proto"
            backends = []
        """,
    )
    with pytest.raises(LintConfigError):
        run_lint([project / "src"])


# ---------------------------------------------------------------------------
# RPL401 multiprocessing safety
# ---------------------------------------------------------------------------


def test_pool_lambda_and_nested_def_fire(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/run.py": """
                from concurrent.futures import ProcessPoolExecutor

                def launch(items):
                    def helper(item):
                        return item + 1

                    with ProcessPoolExecutor() as pool:
                        a = list(pool.map(lambda x: x, items))
                        b = pool.submit(helper, 1)
                    return a, b
            """
        },
    )
    assert codes(run_lint([project / "src"])) == ["RPL401", "RPL401"]


def test_pool_module_level_worker_is_clean(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/run.py": """
                from concurrent.futures import ProcessPoolExecutor
                from functools import partial

                def worker(item, scale=1):
                    return item * scale

                def launch(items):
                    with ProcessPoolExecutor() as pool:
                        a = list(pool.map(worker, items))
                        b = pool.submit(partial(worker, scale=2), 1)
                    return a, b
            """
        },
    )
    assert run_lint([project / "src"]).clean


# ---------------------------------------------------------------------------
# RPL402 atomic durable writes
# ---------------------------------------------------------------------------

DURABLE_CONFIG = """
durable-write-paths = ["src/store"]
"""

DURABLE_SRC = """
    import json
    from pathlib import Path

    def publish(path, rows):
        with open(path, "w") as fh:
            json.dump(rows, fh)

    def publish_bytes(path, blob):
        with open(path, mode="wb") as fh:
            fh.write(blob)

    def publish_path(path, text):
        Path(path).write_text(text)
"""


def test_truncating_writes_on_durable_paths_fire(tmp_path):
    project = make_project(
        tmp_path, {"src/store/out.py": DURABLE_SRC}, DURABLE_CONFIG
    )
    assert codes(run_lint([project / "src"])) == [
        "RPL402", "RPL402", "RPL402",
    ]


def test_same_file_outside_durable_scope_is_clean(tmp_path):
    project = make_project(
        tmp_path, {"src/other/out.py": DURABLE_SRC}, DURABLE_CONFIG
    )
    assert run_lint([project / "src"]).clean


def test_appends_reads_and_noqa_are_clean(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/store/out.py": """
                import os

                def journal_append(path, line):
                    # appends are the journal's own format: exempt
                    with open(path, "a") as fh:
                        fh.write(line)

                def load(path):
                    with open(path) as fh:
                        return fh.read()

                def tmp_leg(path, data):
                    with open(path + ".tmp", "wb") as fh:  # repro: noqa RPL402 -- atomic helper tmp leg
                        fh.write(data)
                    os.replace(path + ".tmp", path)
            """
        },
        DURABLE_CONFIG,
    )
    assert run_lint([project / "src"]).clean


# ---------------------------------------------------------------------------
# RPL5xx registry hygiene
# ---------------------------------------------------------------------------


def test_non_literal_registry_name_fires(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/plugins.py": """
                from registry import register

                for kind in ("a", "b"):
                    register(f"plugin-{kind}", object)
            """
        },
    )
    assert codes(run_lint([project / "src"])) == ["RPL501"]


def test_forwarding_wrapper_is_exempt(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/wrap.py": """
                from registry import REG

                def register_policy(name, fn, overwrite=False):
                    return REG.register(name, fn, overwrite=overwrite)

                register_policy("easy", object)
            """
        },
    )
    assert run_lint([project / "src"]).clean


def test_duplicate_registration_fires_cross_file(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/a.py": """
                from registry import register

                register("dup", object)
            """,
            "src/b.py": """
                from registry import register

                register("dup", object)
                register("unique", object)
            """,
        },
        config='registry-duplicate-paths = ["src"]\n',
    )
    report = run_lint([project / "src"])
    assert codes(report) == ["RPL502"]
    assert "a.py:" in report.violations[0].message  # points back at the first


def test_duplicates_outside_declared_paths_ignored(tmp_path):
    project = make_project(
        tmp_path,
        {
            "tests_dir/t.py": """
                from registry import register

                register("x", object)
                register("x", object)
            """
        },
        config='registry-duplicate-paths = ["src"]\n',
    )
    assert run_lint([project / "tests_dir"]).clean


# ---------------------------------------------------------------------------
# suppressions, selectors, CLI surface
# ---------------------------------------------------------------------------


def test_bare_noqa_suppresses_every_rule():
    suppressions = parse_suppressions("x = 1  # repro: noqa\n")
    assert suppressions[0].matches(1, "RPL101")
    assert suppressions[0].matches(1, "RPL502")
    assert not suppressions[0].matches(2, "RPL101")


def test_malformed_selector_raises():
    with pytest.raises(SuppressionError):
        parse_suppressions("x = 1  # repro: noqa RPL9999\n")


def test_region_requires_codes():
    with pytest.raises(SuppressionError):
        parse_suppressions("# repro: noqa-begin\nx = 1\n# repro: noqa-end\n")


def test_hash_inside_string_is_not_a_suppression():
    assert parse_suppressions('x = "# repro: noqa RPL101"\n') == []


def test_rule_selector_expansion():
    assert expand_rule_selector("RPL202") == ["RPL202"]
    assert expand_rule_selector("RPL2xx") == ["RPL201", "RPL202", "RPL203"]
    with pytest.raises(ValueError):
        expand_rule_selector("E501")


def test_rule_catalog_is_consistent():
    assert len({rule.code for rule in RULES}) == len(RULES)
    for code, rule in RULES_BY_CODE.items():
        assert code == rule.code
        assert rule.summary and rule.contract


def test_rule_filter(tmp_path):
    project = make_project(
        tmp_path,
        {
            "engine/sim.py": """
                import time

                def f(t):
                    return time.time() + t / 2
            """
        },
        config="""
            determinism-paths = ["engine"]
            int-kernel-modules = ["engine/sim.py"]
        """,
    )
    assert codes(run_lint([project / "engine"], rules=["RPL2xx"])) == ["RPL202"]
    assert codes(run_lint([project / "engine"], rules=["RPL101"])) == ["RPL101"]


def test_cli_json_schema(tmp_path, capsys):
    project = make_project(
        tmp_path,
        {
            "engine/sim.py": """
                import time

                def f():
                    return time.time()
            """
        },
        config='determinism-paths = ["engine"]\n',
    )
    assert lint_main(["--json", str(project / "engine")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["clean"] is False
    assert payload["files_checked"] == 1
    (violation,) = payload["violations"]
    assert violation["code"] == "RPL101"
    assert violation["path"].endswith("sim.py")
    assert violation["line"] == 5
    assert isinstance(violation["col"], int)
    assert "time.time" in violation["message"]


def test_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    make_project(tmp_path, {"src/x.py": "x = 1\n"})
    assert lint_main(["--rule", "RPL999", str(tmp_path / "src")]) == 2
    assert "RPL999" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the repository lints itself
# ---------------------------------------------------------------------------


def test_repository_is_clean(capsys):
    targets = [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    assert lint_main(["--check"] + [str(t) for t in targets]) == 0


def test_repro_lint_src_exits_zero(capsys):
    assert lint_main([str(REPO_ROOT / "src" / "repro")]) == 0


# ---------------------------------------------------------------------------
# RPL503 engine-internal reach-in
# ---------------------------------------------------------------------------

ENGINE_INTERNALS_CONFIG = """
    engine-internal-names = ["_event_loop"]
    engine-internal-owners = ["src/core.py"]
"""

ENGINE_SRC = """
    class Core:
        def advance_to(self, t):
            return self._event_loop(t)

        def _event_loop(self, t):
            return t
"""


def test_engine_reach_in_fires_outside_owner(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/core.py": ENGINE_SRC,
            "src/driver.py": """
                def go(core):
                    return core._event_loop(0)
            """,
        },
        config=ENGINE_INTERNALS_CONFIG,
    )
    report = run_lint([project / "src"])
    assert [(v.path, v.code) for v in report.violations] == [
        ("src/driver.py", "RPL503")
    ]
    assert "SchedulerCore" in report.violations[0].message


def test_engine_owner_file_is_exempt(tmp_path):
    project = make_project(
        tmp_path, {"src/core.py": ENGINE_SRC},
        config=ENGINE_INTERNALS_CONFIG,
    )
    assert run_lint([project / "src"]).clean


def test_engine_reach_in_flags_any_receiver(tmp_path):
    # the check is syntactic: `x._event_loop` fires whatever `x` is
    project = make_project(
        tmp_path,
        {"src/other.py": """
            def probe(x):
                return x._event_loop
        """},
        config=ENGINE_INTERNALS_CONFIG,
    )
    assert codes(run_lint([project / "src"])) == ["RPL503"]


def test_engine_reach_in_noqa_suppresses(tmp_path):
    project = make_project(
        tmp_path,
        {"src/bench.py": """
            def gate(core):
                # loop benchmark: measured on purpose
                return core._event_loop(0)  # repro: noqa RPL503 -- loop bench
        """},
        config=ENGINE_INTERNALS_CONFIG,
    )
    assert run_lint([project / "src"]).clean


def test_engine_internals_unconfigured_is_clean(tmp_path):
    project = make_project(
        tmp_path,
        {"src/driver.py": """
            def go(core):
                return core._event_loop(0)
        """},
    )
    assert run_lint([project / "src"]).clean


def test_engine_internals_config_parses():
    from repro.devtools.lint.config import load_config

    config = load_config(REPO_ROOT / "pyproject.toml")
    assert "_event_loop" in config.engine_internal_names
    assert "src/repro/simulation/scheduler_core.py" in \
        config.engine_internal_owners
