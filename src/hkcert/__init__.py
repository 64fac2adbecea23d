"""Exact-rational computation and certification of Hilbert-Kunz multiplicity lower bounds.

The submodules load on first access to any name but ``__version__``
(a module ``__getattr__``, PEP 562), so a CLI process imports only the
modules its subcommand needs; a submodule's own name, as in
``from hkcert import slab``, loads that submodule alone.
"""

__version__ = "0.1.0"

_MODULES = ("bounds", "monomial", "rationals", "report", "series", "slab", "tables")


def _load() -> None:
    """Import the submodules and bind their public names here.

    A module's own ``__all__`` is the one list of its public names, and
    ``__all__`` here is derived from them.
    """
    from importlib import import_module

    names = ["__version__"]
    for module in [import_module(f"{__name__}.{name}") for name in _MODULES]:
        globals().update((attr, getattr(module, attr)) for attr in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    if "__all__" not in globals():
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
