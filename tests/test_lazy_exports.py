"""The packages whose re-exports load on first use keep their surface.

``repro``, ``repro.core``, ``repro.core.profiles``, ``repro.run``,
``repro.workloads``, ``repro.durability``, ``repro.serve`` and
``repro.devtools.lint`` declare their re-exports in one
``_lazy_exports(...)`` table (:mod:`repro._lazy`) instead of importing
them.  Each check runs in a fresh interpreter, since this process has
long since imported every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.profiles",
    "repro.run",
    "repro.workloads",
    "repro.durability",
    "repro.serve",
    "repro.devtools.lint",
]

#: ``repro list`` kinds; each loader imports only its own registry
LIST_KINDS = ["algorithms", "workloads", "policies", "metrics",
              "lint-rules", "failpoints", "uncertainty-models"]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _declared_exports(package):
    """The ``{submodule: names}`` table of a package's ``__init__``,
    read from its source."""
    path = SRC_ROOT.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_lazy_exports"):
            return ast.literal_eval(node.args[2])
    raise AssertionError(f"{package} declares no lazy exports")


#: Checks one package; prints the problems found as a JSON list.
#: argv: package, exports table (JSON), "1" to import every submodule
#: before resolving any name.
SURFACE_PROBE = r"""
import importlib, json, pkgutil, sys

package, exports, submodules_first = (
    sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1")
pkg = importlib.import_module(package)
problems = []
lazy = {name for names in exports.values() for name in names}
if submodules_first:
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
else:
    bound = set(vars(pkg))
    for name in pkg.__all__:
        if name not in lazy and name not in bound:
            problems.append(f"{name} is neither bound nor declared lazy")
    for module, names in exports.items():
        for name in names:
            # a name that equals its submodule's is bound at import
            if name in bound and module.rpartition(".")[2] != name:
                problems.append(f"{name} was loaded by the import")
    if lazy - set(pkg.__all__):
        problems.append(f"declared outside __all__: {sorted(lazy - set(pkg.__all__))}")
resolved = {name: getattr(pkg, name) for name in pkg.__all__}
for module, names in exports.items():
    source = importlib.import_module(module, package)
    for name in names:
        if resolved[name] is not getattr(source, name):
            problems.append(f"{name} is not {module}.{name}")
        if getattr(pkg, name) is not resolved[name]:
            problems.append(f"{name} changed after its submodule loaded")
namespace = {}
exec(f"from {package} import *", namespace)
problems += [f"star import lacks {n}" for n in pkg.__all__ if n not in namespace]
listed = dir(pkg)
problems += [f"dir() lacks {n}" for n in pkg.__all__ if n not in listed]
try:
    pkg.no_such_export
    problems.append("an unknown name resolved")
except AttributeError as exc:
    if repr(package) not in str(exc):
        problems.append(f"unknown-name error does not name the package: {exc}")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("submodules_first", [False, True],
                         ids=["lazy-first", "submodules-first"])
@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_public_surface(package, submodules_first):
    exports = json.dumps(_declared_exports(package))
    out = _python("-c", SURFACE_PROBE, package, exports,
                  "1" if submodules_first else "0")
    assert json.loads(out) == []


def test_characterize_is_the_function_after_its_submodule():
    # importing ``repro.workloads.characterize`` binds the module to the
    # package attribute of the same name; the function must win
    probe = (
        "import importlib, inspect, sys; "
        "mod = importlib.import_module('repro.workloads.characterize'); "
        "import repro.workloads as w; "
        "from repro.workloads import characterize; "
        "assert inspect.isfunction(characterize), characterize; "
        "assert w.characterize is characterize is mod.characterize; "
        "print('ok')"
    )
    assert _python("-c", probe).strip() == "ok"


def test_every_lazy_package_is_checked():
    # a package init that starts declaring lazy exports joins the guard
    declaring = set()
    for path in (SRC_ROOT / "repro").rglob("__init__.py"):
        if "_lazy_exports(" in path.read_text():
            rel = path.parent.relative_to(SRC_ROOT)
            declaring.add(".".join(rel.parts))
    assert declaring == set(LAZY_PACKAGES)


#: Imports every repro module, then lists every registry.
EAGER_LIST = r"""
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
from repro.cli import main
raise SystemExit(main(["list", "--kind", "all"]))
"""


def _sections(listing):
    sections, kind = {}, None
    for line in listing.splitlines():
        if line.startswith("  "):
            sections[kind].append(line.strip())
        else:
            kind = line.rstrip(":")
            sections[kind] = []
    return sections


def test_registries_need_no_eager_package_import():
    # no registration may ride on a package init that now loads lazily:
    # each kind, listed by a fresh ``repro list``, equals its listing
    # after every module has been imported
    eager = _sections(_python("-c", EAGER_LIST))
    assert sorted(eager) == sorted(LIST_KINDS)
    for kind in LIST_KINDS:
        fresh = _python("-m", "repro", "list", "--kind", kind).splitlines()
        assert fresh == eager[kind], kind
        assert fresh, kind
