"""Re-exports that load on first use (PEP 562).

A package lists where each public name lives; the name's submodule is
imported the first time the name is looked up, and the value is then
cached in the package's globals, so later lookups are plain dictionary
hits.  ``import repro`` therefore loads only itself and this module,
and a process that uses ``repro.run.store`` never compiles the
experiment runner.

A name that equals its own submodule's name (``repro.workloads.
characterize``) is bound eagerly: importing the submodule rebinds the
package attribute to the module, and a lazy ``__getattr__`` would never
be asked again.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, namespace: dict, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package whose re-exports
    load on first use.

    ``exports`` maps a relative submodule (``".bounds"``) to the names
    the package re-exports from it; ``namespace`` is the package's
    ``globals()``.
    """
    where: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    for name, module in where.items():
        if module.rpartition(".")[2] == name:
            namespace[name] = getattr(import_module(module, package), name)

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
