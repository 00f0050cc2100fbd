"""PEP 562 lazy package exports.

A package ``__init__`` that imports every submodule makes ``import
repro.serve.daemon`` pay for NumPy and the whole compute stack.  Packages
whose submodules are not all needed together declare their exports here
instead; each name is imported from its submodule on first attribute
access and then cached in the package namespace, so later lookups are
plain dict hits::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.core.params": ["MachineParams"],
        ...
    })

``from pkg import name``, ``pkg.name``, ``__all__`` and ``dir(pkg)`` all
behave as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule's absolute name to the public names it
    defines; ``__all__`` lists them in declaration order.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    names = list(origin)

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__, names
