"""Package namespaces that import a public name's module on first use.

Each package ``__init__`` maps its public names to the submodules that
define them and installs the module ``__getattr__``/``__dir__`` pair that
:func:`attach` returns (PEP 562).  ``import repro.cli`` then loads
the CLI and nothing it does not run, while ``from repro.core import PLT``
and ``repro.core.conditional`` resolve as they did when every
``__init__`` imported all of its modules.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def attach(package: str, names: Mapping[str, str]) -> tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for the package named ``package``.

    ``names`` maps each public name to its defining module, relative to
    the package (``"mining"``, ``"core.mining"``).  The first read of a
    name imports that module and stores the value in the package, so
    later reads are plain attribute lookups.  Any other name is imported
    as a submodule if one exists (``repro.core.conditional``), and is an
    ``AttributeError`` otherwise.
    """

    def __getattr__(name: str):
        if name in names:
            value = getattr(importlib.import_module(f"{package}.{names[name]}"), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__
