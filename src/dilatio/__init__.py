"""Unitary dilations of discrete-time quantum channel semigroups.

Core pipeline: certify a channel (channels.verify_cptp), dilate it
(stinespring / semigroup / cyclic / control), evolve states through the
enlarged closed system, and verify every reconstruction identity against
brute-force superoperator powers.
"""

from .channels import (
    CertificationReport,
    ChoiMatrix,
    KrausChannel,
    apply_channel,
    choi,
    compose,
    convex_combine,
    detect_unitary_conjugation,
    dual,
    identity_channel,
    kraus_from_choi,
    power,
    random_channel,
    superoperator_matrix,
    unitary_channel,
    verify_cptp,
)
from .control import (
    build_control_dilation,
    check_commuting,
    evolve_control,
    reachable_set,
    verify_control_dilation,
    verify_reachable_inclusion,
)
from .cyclic import (
    CyclePeriod,
    build_cyclic_dilation,
    detect_cycle,
    evolve_cyclic,
    reduce_power,
    reduced_exponent,
    verify_cyclic_dilation,
    wrap_count,
)
from .errors import (
    ChannelFormatError,
    CompletionError,
    HorizonError,
    MemoryGuardError,
    NotCommutingError,
    NotCyclicError,
    RejectedChannelError,
)
from .linalg import (
    complete_isometry_to_unitary,
    is_psd,
    kron,
    partial_trace,
    partial_trace_state,
    trace,
    trace_distance,
    trace_norm,
)
from .register import RegisterDilation, VerificationReport
from .semigroup import (
    DilationBundle,
    build_semigroup_dilation,
    evolve,
    heisenberg_evolve,
    verify_dilation,
)
from .stinespring import (
    GeneralDilation,
    UnitaryDilation,
    general_stinespring,
    heisenberg_dilation,
    stinespring_unitary,
)

__version__ = "0.1.0"
