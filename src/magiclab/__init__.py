"""magiclab: stabilizer witnesses, Chebyshev AGSP bounds, and ZX-cat tooling.

Import what you need from its modules, e.g. ``from magiclab.zxcat import build``.
"""

__version__ = "0.1.0"
