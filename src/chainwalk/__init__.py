"""Exact desk-scale simulator for chained-walk multiple collision search.

The package root defines only `__version__`; every other name is imported
from its module, for example `from chainwalk.chain import ChainConfig, run`.
"""

__version__ = "0.1.0"
