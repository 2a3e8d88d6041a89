"""Noise channels diagonal in the chord representation on a discrete torus.

Modules split along the pipeline: phase-space kinematics (translations and
the chord transform), state constructors with the discrete Wigner function,
the noise channels themselves, quantized torus maps, spectra of the noisy
propagators, and a small CLI. The package namespace is the union of the
five library modules' `__all__`. The slow reference implementations the
tests check these against live in `chordnoise.oracles`.
"""

from .phasespace import *
from .states import *
from .channels import *
from .dynamics import *
from .spectral import *

__version__ = "0.1.0"
