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

Every state the package builds from a matrix passes :func:`check_density`,
which checks a stack member by member and names the first that fails.  The
evolution's states come from tables that the import certified
(``evolution._basis_table``), so they are not checked again per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import BLOCK_SHAPE, HERMITICITY_TOL, TOTAL_DIM

TRACE_TOL = 1e-10
PSD_TOL = 1e-10

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
        b, c = float(self.b), float(self.c)
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

        The upper bound holds for every constructible instance (it is the
        a >= 0 constraint), so only the lower bound is tested; comparing the
        upper bound again here would misclassify points sitting on it to
        within float rounding.
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
    """Reject a state, or a stack with any member, that is not a density
    matrix: finite, Hermitian, of unit trace and positive semidefinite, all
    to 1e-10.

    A state is a 6x6 matrix, or its two real symmetric 3x3 blocks in the
    basis of the symmetry S (a (2, 3, 3) block stack, see ``linalg``); a
    stack is a (..., 6, 6) or a (..., 2, 3, 3) array.  The blocks of a state
    are checked together: its trace is the sum of their traces, and it is
    positive semidefinite exactly when both blocks are, since the basis
    change is orthogonal.

    The members are checked in turn, one pass per check and a full
    ``eigvalsh`` for positivity, and the message names the first failing
    member (no member for a single state).
    """
    m = _as_blocks(m)
    mh = m.swapaxes(-1, -2)
    mh = mh.conj() if np.iscomplexobj(mh) else mh

    def reject(bad: np.ndarray, message) -> None:
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            where = f" in stack member {i[0] if len(i) == 1 else tuple(map(int, i))}" if i else ""
            raise ValueError(message(i) + where)

    member = (-3, -2, -1)
    reject(~np.isfinite(m).all(axis=member), lambda i: "density matrix contains NaN or Inf")
    defect = np.abs(m - mh).max(axis=member)
    reject(defect > HERMITICITY_TOL, lambda i: f"not Hermitian (defect {defect[i]:.3e})")
    tr = np.trace(m, axis1=-2, axis2=-1).sum(axis=-1)
    reject(np.abs(tr - 1.0) > TRACE_TOL, lambda i: f"trace must be 1, got {tr[i]}")
    min_eig = np.linalg.eigvalsh((m + mh) / 2.0)[..., 0].min(axis=-1)
    reject(
        min_eig < -PSD_TOL,
        lambda i: f"not positive semidefinite (min eigenvalue {min_eig[i]:.3e})",
    )


def _as_blocks(m: np.ndarray) -> np.ndarray:
    """A state or stack as a (..., k, d, d) stack: itself if it holds block
    pairs, a 6x6 matrix as one block of its own."""
    if m.ndim >= 3 and m.shape[-3:] == BLOCK_SHAPE:
        return m
    if m.ndim >= 2 and m.shape[-2:] == (TOTAL_DIM, TOTAL_DIM):
        return m[..., None, :, :]
    raise ValueError(f"expected {TOTAL_DIM}x{TOTAL_DIM}, got {m.shape}")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 6x6 density matrix over the qubit-qutrit space.

    Construction runs :func:`check_density`; the stored array is an
    immutable copy.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (TOTAL_DIM, TOTAL_DIM):
            raise ValueError(f"expected {TOTAL_DIM}x{TOTAL_DIM}, got {m.shape}")
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


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _bell_vector(kind: str) -> np.ndarray:
    v = np.zeros(TOTAL_DIM, dtype=complex)
    i, j = (_IDX_00, _IDX_11) if kind.startswith("phi") else (_IDX_01, _IDX_10)
    sign = 1.0 if kind.endswith("+") else -1.0
    v[i] = 1.0 / np.sqrt(2.0)
    v[j] = sign / np.sqrt(2.0)
    return v


#: The Bell-like projectors and the projector onto the two pure qutrit
#: level-2 states |02>, |12>, built once at import.  The phi states superpose
#: |00> and |11>, the psi states |01> and |10>; none populates qutrit level 2.
_BELL_PROJECTORS = {kind: _projector(_bell_vector(kind)) for kind in BELL_KINDS}
_LEVEL_2_PROJECTOR = np.diag([0, 0, 1, 0, 0, 1]).astype(complex)


#: The family's basis states, each of unit trace: P_2 / 2, B_3 / 3 with B_3
#: the sum of the phi+, phi- and psi+ projectors, and the psi- projector.
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
    sum to 1."""
    return np.array([2.0 * params.a, 3.0 * params.b, params.c])


def initial_state(params: StateParams) -> DensityMatrix:
    """The family state at zero noise, the mix of ``FAMILY_BASIS`` with the
    point's weights."""
    mix = family_weights(params) @ FAMILY_BASIS.reshape(len(FAMILY_BASIS), -1)
    return DensityMatrix(mix.reshape(TOTAL_DIM, TOTAL_DIM))
