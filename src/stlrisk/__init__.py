"""Temporal logic monitoring over discrete-time traces, with sample-based
risk bounds on how robustly a stochastic process satisfies a formula."""

__version__ = "0.1.0"

from .errors import *
from .formula import *
from .parser import *
from .predicates import *
from .risk import *
from .scenario import *
from .semantics import *
from .trace import *
