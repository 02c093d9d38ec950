"""entdist: entanglement-based vector distance estimation and the
classification and clustering procedures built on it.
"""

from . import ml, noise, protocol, vectors
from .ml import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .vectors import *  # noqa: F401,F403

__version__ = "0.7.0"

# each public name is declared once, in its own module's __all__
__all__ = ["__version__", *vectors.__all__, *noise.__all__, *protocol.__all__, *ml.__all__]
