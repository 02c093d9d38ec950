"""entdist: entanglement-based vector distance estimation and the
classification and clustering procedures built on it.
"""

from importlib import import_module

__version__ = "0.7.0"


def __getattr__(name):
    # the modules, and numpy with them, load on first use, so that importing entdist.cli can
    # start numpy itself (see cli.py); each public name is declared once, in its own module's
    # __all__
    modules = [import_module(f".{module}", __name__)
               for module in ("vectors", "noise", "protocol", "ml")]
    public = {key: getattr(module, key) for module in modules for key in module.__all__}
    globals().update(public, __all__=["__version__", *public])
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
