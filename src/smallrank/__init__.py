"""smallrank: exact arithmetic for rings of rank 2, 3 and 4 over Z.

Composition of binary quadratic forms through 2x2x2 cubes, the ideal <-> form
dictionary for quadratic rings, cubic rings from binary cubic forms, quartic
rings with cubic resolvents from pairs of ternary quadratic forms, maximality
testing, and a p-adic balanced-triple count with its enumeration oracle.

Each submodule is imported when it is first used, not with the package:
``smallrank.quadforms.class_group(...)`` works straight after
``import smallrank`` and loads only ``quadforms`` and the modules it needs.
"""

__version__ = "0.1.0"

__all__ = [
    "cubes",
    "cubicrings",
    "errors",
    "exactlattice",
    "padic",
    "quadforms",
    "quadrings",
    "quarticrings",
    "__version__",
]


def __getattr__(name):
    # PEP 562: called only for a name the package does not bind yet.  The
    # import binds the submodule as a package global, so this runs at most
    # once per name; __import__, unlike importlib.import_module, loads no
    # stdlib module
    if name in __all__:
        __import__(__name__ + "." + name)
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(globals().keys() | set(__all__))
