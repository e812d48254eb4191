"""Lazy package exports (PEP 562).

A package ``__init__`` names the module that defines each public name;
that module is imported on the first attribute access, so importing a
package (or any module inside it) costs only the package's own
``__init__``, never its whole subtree::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".core": ("EventHandle", "Simulator"),
    })
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module path (relative to ``package`` when it
    starts with a dot) to the public names it defines.  A resolved name
    is stored in the package's namespace, so it is looked up once.
    """
    where = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return sorted(where), __getattr__, __dir__
