"""Noise channels diagonal in the chord representation on a discrete torus.

Modules split along the pipeline: phase-space kinematics (translations and
the chord transform), state constructors with the discrete Wigner function,
the noise channels themselves, quantized torus maps, spectra of the noisy
propagators, and a small CLI. The slow reference implementations the tests
check these against live in `chordnoise.oracles`.
"""

from .phasespace import (
    TorusGeometry,
    translation_operator,
    composition_phase,
    wedge,
    hs_inner,
    chord_transform,
    chord_inverse,
)
from .states import (
    coherent_state,
    cat_state,
    density_from_pure,
    wigner_function,
    wigner_overlap,
)
from .channels import (
    DiagonalChordChannel,
    ChannelSpectrum,
    make_depolarizing,
    line_points,
    make_phase_damping_line,
    make_gaussian,
    channel_spectrum,
    apply_channel,
)
from .dynamics import (
    LinearMapSpec,
    KickedMap,
    quantize_linear_map,
    nonlinear_kick,
)
from .spectral import (
    TruncatedPropagator,
    SpectrumResult,
    build_noisy_propagator,
    leading_spectrum,
    sort_by_modulus,
    stability_report,
)

__version__ = "0.1.0"
