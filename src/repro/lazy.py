"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package ``__init__`` that re-exports its submodules' names with
``from .sub import Name`` runs every one of those submodules the first
time anything imports the package, or any module inside it.  Importing
``repro.scenarios`` to plan an analytic sweep would then run the DES
builder, the apps, the figure runners and every workload model, none of
which an analytic sweep calls.

:func:`lazy_exports` gives such a package a module ``__getattr__`` and
``__dir__`` instead.  ``pkg.Name``, ``from pkg import Name`` and
``from pkg import *`` all reach ``__getattr__`` for a name not yet
loaded.  It imports the submodule that defines the name, binds the name
in the package's namespace (so later reads are plain attribute lookups,
and the object is the same one an eager import would give) and returns
it.  ``__all__`` stays an explicit list in the package, and ``dir(pkg)``
lists every exported name whether or not it has been loaded.  A package
may keep some imports eager and defer the rest: ``repro.scenarios``
defers only its builder names.  Packages where deferring would save
no module on an analytic sweep or a replay (``repro.steady``,
``repro.power`` and the three app packages) keep plain imports.
"""

from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, object], exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``.

    ``exports`` maps each submodule, relative to the package (``".core"``),
    to the names it exports through the package; ``"."`` lists names that
    are submodules themselves (``repro.experiments.figures``).
    """
    package = namespace["__name__"]
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = import_module("." + name, package)
        else:
            value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__
