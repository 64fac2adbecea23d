"""Exact-rational computation and certification of Hilbert-Kunz multiplicity lower bounds."""

__version__ = "0.1.0"

from .bounds import *
from .monomial import *
from .rationals import *
from .report import *
from .series import *
from .slab import *
from .tables import *

# Each import above also binds its submodule here.  A module's own
# ``__all__`` is the one list of its public names.
__all__ = ["__version__"] + [
    name for module in (bounds, monomial, rationals, report, series, slab, tables) for name in module.__all__
]
