"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package lists which module defines each name it re-exports; nothing is
imported until a name is first read.  Then its module is imported, the
value is bound in the package (later reads are plain attribute reads, and
``monkeypatch.setattr`` on the package works as before), and returned.
An attribute that names a submodule imports that submodule.  So a process
loads only the modules its work runs: ``import repro`` loads this module
and nothing else, and a DES sweep never imports numpy.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Dict[str, Sequence[str]],
    defined: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps a module's absolute name to the names the package
    re-exports from it; ``defined`` lists public names the package's
    ``__init__`` defines itself.  Call it from that ``__init__``::

        __all__, __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.core.ssrmin": ("SSRmin",),
        })
    """
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return [*home, *defined], __getattr__, __dir__


__all__ = ["lazy_exports"]
