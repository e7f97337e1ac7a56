"""The two-parameter qubit-qutrit state family and validated density matrices.

The family mixes the four Bell-like states living in the qutrit {0, 1}
sub-block with the two pure levels |02> and |12>:

    rho(0) = a (|02><02| + |12><12|)
           + b (|phi+><phi+| + |phi-><phi-| + |psi+><psi+|)
           + c |psi-><psi-|,

with 2a + 3b + c = 1.  Taking (b, c) as free and a derived keeps the triple
consistent by construction.  Equivalently rho(0) is the convex mix
2a (P_2 / 2) + 3b (B_3 / 3) + c |psi-><psi-| of three fixed unit-trace
states (``FAMILY_BASIS``), P_2 the projector onto |02>, |12> and B_3 the
sum of the phi+, phi- and psi+ projectors.  The family is entangled
exactly when 3b < c <= 1 - 3b.

The basis states are exact: each entry is an integer over 6, and each
trace is exactly 1, since the Bell-like projectors are built as
v v^T / 2 from vectors of integers.

Every state the package builds from a matrix passes :func:`check_density`,
which checks one 6x6 matrix to ``DENSITY_TOL``.  The evolution's states
come from tables that the import certified exactly
(``evolution._basis_table``), so they are not checked again per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TOTAL_DIM

#: Absolute tolerance of each test of :func:`check_density`: the Hermiticity
#: defect, the trace's distance from 1 and the most negative eigenvalue.
DENSITY_TOL = 1e-10

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")

# Composite basis positions of the two-qubit-like levels: |00>, |11>, |01>, |10>.
_IDX_00, _IDX_11, _IDX_01, _IDX_10 = 0, 4, 1, 3


@dataclass(frozen=True)
class StateParams:
    """Weights (b, c) of the state family; the third weight a is derived.

    Invariants enforced at construction: a = (1 - 3b - c)/2 must be
    non-negative and all three weights must lie in [0, 1].
    """

    b: float
    c: float

    def __post_init__(self) -> None:
        # + 0.0 turns -0.0 into 0.0, so that outputs never carry a signed zero.
        b, c = float(self.b) + 0.0, float(self.c) + 0.0
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not (0.0 <= b <= 1.0 and 0.0 <= c <= 1.0):
            raise ValueError(f"b and c must lie in [0, 1], got b={b}, c={c}")
        if self.a < -1e-12:
            raise ValueError(
                f"weights require 3b + c <= 1, got b={b}, c={c} (a={self.a:.3e})"
            )

    @property
    def a(self) -> float:
        return (1.0 - 3.0 * self.b - self.c) / 2.0

    @property
    def is_entangled(self) -> bool:
        """True inside the entangled regime 3b < c <= 1 - 3b.

        The upper bound is the a >= 0 constraint, which construction checks
        to within 1e-12 (an a in [-1e-12, 0) is taken as 0 by
        :func:`family_weights`), so only the lower bound is tested;
        comparing the upper bound again here would misclassify points
        sitting on it to within float rounding.
        """
        return 3.0 * self.b < self.c

    @classmethod
    def a_zero(cls, b: float) -> "StateParams":
        """The a = 0 sub-family, c = 1 - 3b."""
        return cls(b, 1.0 - 3.0 * b)


def random_entangled_params(rng: np.random.Generator, n: int) -> list[StateParams]:
    """``n`` points of the entangled regime drawn from ``rng``: b uniform in
    [0, 1/6), then c uniform in [3b, 1 - 3b), redrawn until c > 3b + 1e-9."""
    points = []
    while len(points) < n:
        b = rng.uniform(0.0, 1.0 / 6.0)
        c = rng.uniform(3.0 * b, 1.0 - 3.0 * b)
        if c > 3.0 * b + 1e-9:
            points.append(StateParams(b, c))
    return points


def check_density(m: np.ndarray) -> None:
    """Reject a 6x6 array that is not a density matrix: finite, Hermitian,
    of unit trace and positive semidefinite, each to ``DENSITY_TOL``, checked
    in that order.  Any other shape, a stack of 6x6 matrices included, is
    rejected too."""
    if m.shape != (TOTAL_DIM, TOTAL_DIM):
        raise ValueError(f"expected a {TOTAL_DIM}x{TOTAL_DIM} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("density matrix contains NaN or Inf")
    mh = m.conj().T
    defect = np.abs(m - mh).max()
    if defect > DENSITY_TOL:
        raise ValueError(f"not Hermitian (defect {defect:.3e})")
    tr = np.trace(m)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValueError(f"trace must be 1, got {tr}")
    min_eig = np.linalg.eigvalsh((m + mh) / 2.0)[0]
    if min_eig < -DENSITY_TOL:
        raise ValueError(f"not positive semidefinite (min eigenvalue {min_eig:.3e})")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 6x6 density matrix over the qubit-qutrit space.

    Construction runs :func:`check_density`; the stored array is an
    immutable copy.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        check_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _checked(cls, m: np.ndarray) -> "DensityMatrix":
        """Wrap a copy of a state that needs no check: one the evolution
        mixed from its import-certified tables."""
        m = np.array(m, dtype=complex)
        m.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        return rho


def _projector(kind: str) -> np.ndarray:
    """The projector v v^T / 2 of a Bell-like state (|i> +/- |j>) / sqrt 2,
    from the vector v of integers: every entry is exact."""
    v = np.zeros(TOTAL_DIM, dtype=complex)
    i, j = (_IDX_00, _IDX_11) if kind.startswith("phi") else (_IDX_01, _IDX_10)
    v[i], v[j] = 1.0, (1.0 if kind.endswith("+") else -1.0)
    return np.outer(v, v) / 2.0


#: The Bell-like projectors and the projector onto the two pure qutrit
#: level-2 states |02>, |12>, built once at import.  The phi states superpose
#: |00> and |11>, the psi states |01> and |10>; none populates qutrit level 2.
_BELL_PROJECTORS = {kind: _projector(kind) for kind in BELL_KINDS}
_LEVEL_2_PROJECTOR = np.diag([0, 0, 1, 0, 0, 1]).astype(complex)


#: The family's basis states, each of trace exactly 1 and with entries that
#: are integers over 6: P_2 / 2, B_3 / 3 with B_3 the sum of the phi+, phi-
#: and psi+ projectors, and the psi- projector.
#: rho(0) is their convex mix with the weights of :func:`family_weights`.
FAMILY_BASIS = np.array(
    [
        _LEVEL_2_PROJECTOR / 2.0,
        (_BELL_PROJECTORS["phi+"] + _BELL_PROJECTORS["phi-"] + _BELL_PROJECTORS["psi+"]) / 3.0,
        _BELL_PROJECTORS["psi-"],
    ]
)


def family_weights(params: StateParams) -> np.ndarray:
    """The weights (2a, 3b, c) of the family's basis states at a point; they
    sum to 1.  An a that rounding makes negative, down to the -1e-12 that
    :class:`StateParams` admits, is taken as 0, so that the state has no
    negative eigenvalue."""
    return np.array([max(0.0, 2.0 * params.a), 3.0 * params.b, params.c])


def initial_state(params: StateParams) -> DensityMatrix:
    """The family state at zero noise, the mix of ``FAMILY_BASIS`` with the
    point's weights."""
    mix = family_weights(params) @ FAMILY_BASIS.reshape(len(FAMILY_BASIS), -1)
    return DensityMatrix(mix.reshape(TOTAL_DIM, TOTAL_DIM))
