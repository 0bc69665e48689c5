"""States and operators over tensor-product Hilbert spaces.

States and operators are immutable value objects validated at construction:
pure states carry unit norm, density matrices are Hermitian trace-one
positive-semidefinite (up to small numerical floors), operators know whether
they are meant to be Hermitian.  These three hold dense arrays over the whole
space.  A ProductState holds a product of small dense states on consecutive
sites instead, and never an array over its whole space.  Sites are numbered
from 1 and site 1 is the most significant index of the composite basis
(big-endian), a convention shared by every module built on top of this one.
The readers here (``_local_mean``, ``_sum_moments``, ``_collective_moments``
and ``_collective_distribution``) are the only code that reads how a state
is stored.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence


class _LazyNumpy:
    """numpy, imported at the first read of one of its names.

    The package's only numpy import: every module reads numpy through ``np``
    below, so a command that reads no numpy name (``decoherence-scan``) never
    loads it.  Each name read is stored in the instance's own ``__dict__``, so
    later reads of it are plain attribute hits.  A dunder lookup (``hasattr``
    probes by ``inspect``, ``copy`` or ``pickle``) loads nothing.
    """

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        import numpy

        value = self.__dict__[name] = getattr(numpy, name)
        return value


np = _LazyNumpy()

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10
IMAG_TOL = 1e-10
DEGENERACY_GAP = 1e-8
_HALF_INTEGER_TOL = 1e-9
# the dimension cap: of 2^n in the qubit builders, d^n in FockLatticeSpec, and of the
# S_z sector C(n, n // 2) in heisenberg_ground_state, which then unfolds 2^n amplitudes
DIM_CAP = 4096
# sites one block of a ProductState may span
MAX_BLOCK_SITES = 4


class Record:
    """Immutable value object whose fields are its class annotations, in order.

    ``__init__`` binds positional and keyword arguments to the fields, takes
    a missing one from its class-level default, and then calls
    ``self.__post_init__()``, which may validate and replace fields (or set
    further attributes) with ``object.__setattr__``.  Assignment and deletion
    raise AttributeError.  A subclass compares and hashes by its fields; one
    declared ``class C(Record, eq=False)`` keeps identity equality.  The
    class is read once, when it is created, and no code is generated for it.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        # the namespace's own annotations: ``cls.__annotations__`` may be a base's on 3.10
        own = [a for a in cls.__dict__.get("__annotations__", {}) if a not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{a: cls.__dict__[a] for a in own if a in cls.__dict__}}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        if len(values) < len(fields):
            missing = [f for f in fields if f not in values and f not in self._defaults]
            if missing:
                raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        # a defaulted field stays unset here and reads the class attribute
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class HilbertSpace(Record):
    """Ordered site list with local dimensions.

    ``kind`` tags what the local factors are: "qubit" for two-level sites,
    "fock" for two-mode bosonic sites truncated at ``fock_cutoff`` total
    particles, "generic" otherwise.
    """

    dims: tuple[int, ...]
    kind: str = "qubit"
    fock_cutoff: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if len(self.dims) == 0:
            raise ValueError("a Hilbert space needs at least one site")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"local dimensions must be positive, got {self.dims}")
        if self.kind == "qubit" and any(d != 2 for d in self.dims):
            raise ValueError("qubit spaces must have local dimension 2 everywhere")
        if self.kind == "fock":
            c = self.fock_cutoff
            if not isinstance(c, (int, np.integer)) or c < 1:
                raise ValueError(f"fock spaces need an integer fock_cutoff >= 1, got {c!r}")
            site_dim = (c + 1) * (c + 2) // 2
            if any(d != site_dim for d in self.dims):
                raise ValueError(f"fock sites with cutoff {c} have dimension {site_dim}, got {self.dims}")

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def check_site(self, site: int) -> None:
        if not 1 <= site <= self.n_sites:
            raise ValueError(f"site {site} out of range 1..{self.n_sites}")


def _as_readonly_complex(values, name: str) -> np.ndarray:
    """A read-only C-ordered complex128 copy of ``values`` with finite entries."""
    arr = np.array(values, dtype=np.complex128, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    arr.setflags(write=False)
    return arr


def _is_hermitian(matrix: np.ndarray) -> bool:
    return np.abs(matrix - matrix.conj().T).max() <= HERMITICITY_TOL


def _check_psd(matrix: np.ndarray) -> None:
    # Cholesky of (matrix - floor*I) succeeds exactly when every eigenvalue
    # clears the floor; it is several times cheaper than an eigensolve.
    shifted = matrix.copy()
    shifted.flat[:: matrix.shape[0] + 1] += -PSD_EIG_FLOOR
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(matrix)[0])
        if lam_min < PSD_EIG_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {lam_min}") from None


class PureState(Record, eq=False):
    """Normalized amplitude vector over a labeled tensor-product basis."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_readonly_complex(self.amplitudes, "amplitudes")
        if amps.ndim != 1 or amps.shape[0] != self.space.dim:
            raise ValueError(
                f"amplitude vector has length {amps.shape}, space has dimension {self.space.dim}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)


class DensityMatrix(Record, eq=False):
    """Hermitian, positive-semidefinite, trace-one matrix over a labeled basis.

    The constructor copies ``matrix``, so the caller may keep writing to its
    own array.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_readonly_complex(self.matrix, "density matrix")
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {d}")
        if not _is_hermitian(mat):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        _check_psd(mat)
        object.__setattr__(self, "matrix", mat)


class ProductState(Record, eq=False):
    """Tensor product of validated PureState/DensityMatrix blocks on
    consecutive sites, the first block on the first sites.

    Each block spans at most MAX_BLOCK_SITES sites and all share one site
    kind and cutoff.  ``space`` is their concatenated HilbertSpace, and no
    array of size ``space.dim`` is ever allocated: the readers below combine
    the dense readers' values on the blocks.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a product state needs at least one block")
        for block in blocks:
            if not isinstance(block, (PureState, DensityMatrix)):
                raise ValueError(f"a block cannot be a {type(block).__name__}")
            if block.space.n_sites > MAX_BLOCK_SITES:
                raise ValueError(f"a block spans more than {MAX_BLOCK_SITES} sites")
        first = blocks[0].space
        if any((b.space.kind, b.space.fock_cutoff) != (first.kind, first.fock_cutoff) for b in blocks):
            raise ValueError("the blocks of a product state must share one site kind and cutoff")
        dims = tuple(d for b in blocks for d in b.space.dims)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "space", HilbertSpace(dims, first.kind, first.fock_cutoff))


class LinearOperator(Record, eq=False):
    """Square complex matrix acting on a state space.

    ``hermitian_hint`` declares the operator is an observable/generator;
    Hermiticity is then verified at construction and required by the
    expectation-value routines.
    """

    space: HilbertSpace
    matrix: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self):
        mat = _as_readonly_complex(self.matrix, "operator")
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"operator shape {mat.shape} does not match space dimension {d}")
        if self.hermitian_hint and not _is_hermitian(mat):
            raise ValueError("operator marked Hermitian fails the Hermiticity check")
        object.__setattr__(self, "matrix", mat)


class GroundState(Record, eq=False):
    energy: float
    state: PureState
    degenerate: bool
    gap: float


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"{what} has imaginary residue {value.imag}")
    return float(value.real)


def expectation(op: LinearOperator, state) -> float:
    """<psi|op|psi> or Tr(rho op) for a Hermitian operator."""
    if not op.hermitian_hint:
        raise ValueError("expectation requires an operator with hermitian_hint set")
    if op.space.dims != state.space.dims:
        raise ValueError(
            f"operator space {op.space.dims} does not match state space {state.space.dims}"
        )
    if isinstance(state, PureState):
        val = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    elif isinstance(state, DensityMatrix):
        val = complex(np.einsum("ij,ji->", state.matrix, op.matrix))
    else:
        raise ValueError(f"cannot take an expectation on {type(state).__name__}")
    return _real_part(val, "expectation value")


def variance_from_moments(e1: float, e2: float) -> float:
    """e2 - e1^2, clamped to zero when within -1e-10 of it; more negative raises."""
    var = e2 - e1 * e1
    if var < 0.0:
        if var < -IMAG_TOL:
            raise ValueError(f"variance {var} is negative beyond tolerance")
        var = 0.0
    return var


def _apply_site(local: np.ndarray, space: HilbertSpace, site: int, values: np.ndarray) -> np.ndarray:
    """A one-site matrix acting on ``site`` of the state index of ``values``.

    ``values`` is an amplitude vector, or an array whose first axis is the
    state index (the rows of a matrix).  ``local`` is one d x d matrix, with
    d the dimension of ``site``, or a stack (s, d, d), which gives a result
    of shape (s,) + values.shape.  The state index is reshaped to (dims
    before ``site``, d, rest) and the site's axis moved first, so one matmul
    acts on every (before, rest) column and no dim x dim operator is formed.
    """
    d = space.dims[site - 1]
    left = math.prod(space.dims[: site - 1])
    cols = values.reshape(left, d, -1).swapaxes(0, 1).reshape(d, -1)
    out = (local @ cols).reshape(local.shape[:-1] + (left, -1)).swapaxes(-3, -2)
    return out.reshape(local.shape[:-2] + values.shape)


def _apply_product(factors: Mapping, space: HilbertSpace, values: np.ndarray) -> np.ndarray:
    """prod_s factors[s]^(s) applied to the state index of ``values``, one site at a time."""
    for site, local in factors.items():
        values = _apply_site(local, space, site, values)
    return values


def _site_sum(local: np.ndarray, space: HilbertSpace, values: np.ndarray) -> np.ndarray:
    """sum_k local^(k) applied to the state index of ``values``, for a one-site ``local``."""
    total = _apply_site(local, space, 1, values)
    for site in range(2, space.n_sites + 1):
        total += _apply_site(local, space, site, values)
    return total


def _site_block(space: HilbertSpace, sites: Sequence[int], matrices: np.ndarray) -> np.ndarray:
    """The block of any increasing list of sites in each of a stack of
    dim x dim matrices, every other site traced out.

    Tr(local M) for a ``local`` acting on ``sites`` is then Tr(local @ block).
    The matrices are reshaped to (traced, kept, traced, ...) on both indices
    and the traced indices of the bra and ket are one einsum label, which
    numpy reads as a diagonal view: a D x D block reads D dim entries of each
    matrix and makes no dim x dim temporary.  With every site kept the
    matrices are returned as they are.
    """
    dims = space.dims
    if len(sites) == len(dims):
        return matrices
    cuts = [0, *(c for s in sites for c in (s - 1, s)), len(dims)]
    # segment lengths alternate traced, kept, traced, ...; a traced one may be 1
    seg = [math.prod(dims[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    t = matrices.reshape(matrices.shape[:-2] + tuple(seg) * 2)
    bra = list(range(len(seg)))
    ket = [i if i % 2 == 0 else len(seg) + i for i in bra]
    block = np.einsum(t, [Ellipsis, *bra, *ket], [Ellipsis, *bra[1::2], *ket[1::2]])
    d = math.prod(seg[1::2])
    return block.reshape(matrices.shape[:-2] + (d, d))


def _local_mean(state, factors: Mapping[int, np.ndarray]) -> complex:
    """<prod_s factors[s]^(s)> for one-site matrices on distinct sites.

    A pure state applies them site by site and takes one inner product, a
    density matrix traces them against the block of their sites, each factor
    on its site's (ket, bra) pair, and a ProductState multiplies its blocks'
    means, a block with no factor counting as 1.
    """
    if isinstance(state, ProductState):
        mean, first = 1 + 0j, 1
        for block in state.blocks:
            last = first + block.space.n_sites
            mine = {s - first + 1: m for s, m in factors.items() if first <= s < last}
            if mine:
                mean *= _local_mean(block, mine)
            first = last
        return mean
    space = state.space
    if isinstance(state, PureState):
        return complex(np.vdot(state.amplitudes, _apply_product(factors, space, state.amplitudes)))
    if isinstance(state, DensityMatrix):
        sites = sorted(factors)
        k, dims = len(sites), tuple(space.dims[s - 1] for s in sites)
        block = _site_block(space, sites, state.matrix).reshape(dims * 2)
        # Tr(F rho) = sum F[a, b] rho[b, a]: factor i is labeled (a_i, b_i), the block (b, a)
        operands = [x for i, s in enumerate(sites) for x in (factors[s], [i, k + i])]
        return complex(np.einsum(*operands, block, [*range(k, 2 * k), *range(k)], []))
    raise ValueError(f"cannot take an expectation on {type(state).__name__}")


def _sum_moments(state, terms: Sequence[Mapping[int, np.ndarray]]) -> tuple[float, float]:
    """<S> and <S^2> for a Hermitian S = sum_t prod_s t[s]^(s), each term a
    product of one-site matrices on distinct sites; no operator matrix is built.

    A pure state takes v = S psi site by site, with <S^2> = |v|^2, in
    O(len(terms) dim).  Any other state is read through ``_local_mean``:
    <S^2> sums the means of the site-wise products t_a t_c over every pair of
    terms.
    """
    if isinstance(state, PureState):
        psi = state.amplitudes
        v = sum((_apply_product(t, state.space, psi) for t in terms), np.zeros_like(psi))
        return _real_part(complex(np.vdot(psi, v)), "expectation value"), float(np.vdot(v, v).real)
    mean = sum((_local_mean(state, t) for t in terms), 0j)
    products = ({**a, **c, **{s: a[s] @ c[s] for s in a.keys() & c.keys()}}
                for a in terms for c in terms)
    second = sum((_local_mean(state, p) for p in products), 0j)
    return _real_part(mean, "expectation value"), _real_part(second, "second moment")


def _real_array(values: np.ndarray, what: str) -> np.ndarray:
    return np.array([_real_part(complex(v), what) for v in values.flat]).reshape(values.shape)


def _collective_moments(state, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<L_k> and the symmetrized <(L_k L_l + L_l L_k) / 2> for the site sums
    L_k = sum_s local[k]^(s) of a (K, d, d) stack of one-site matrices.

    No dim x dim operator is built.  A pure state takes v_k = L_k psi, applied
    site by site, and inner products.  A density matrix is read through its
    one- and two-site blocks: <L_k> and the same-site terms
    sum_s Tr(l_k l_l rho_s) come from the sum of the one-site blocks rho_s,
    and the cross terms from the sum over pairs s < t of the two-site blocks
    rho_st, as Tr((l_k x l_l) rho_st) plus its transpose.  A ProductState is
    read block by block: the means add, and
    <L_k L_l> = sum_b <L_k L_l>_b + sum_{b != c} <L_k>_b <L_l>_c.
    """
    if isinstance(state, ProductState):
        parts = [_collective_moments(block, local) for block in state.blocks]
        mean = sum(m for m, _ in parts)
        # sum_{b != c} m_b m_c^T is (sum_b m_b)(sum_c m_c)^T less the b == c terms
        return mean, sum(s - np.outer(m, m) for m, s in parts) + np.outer(mean, mean)
    space = state.space
    if isinstance(state, PureState):
        psi = state.amplitudes
        v = _site_sum(local, space, psi)
        mean = v @ psi.conj()
        gram = v.conj() @ v.T
    elif isinstance(state, DensityMatrix):
        d = local.shape[-1]
        one = sum(_site_block(space, (s,), state.matrix) for s in range(1, space.n_sites + 1))
        pairs = itertools.combinations(range(1, space.n_sites + 1), 2)
        zero = np.zeros((d * d, d * d), dtype=complex)
        two = sum((_site_block(space, p, state.matrix) for p in pairs), zero).reshape(d, d, d, d)
        mean = np.einsum("kij,ji->k", local, one)
        cross = np.einsum("kab,lcd,bdac->kl", local, local, two)
        gram = np.einsum("kim,lmj,ji->kl", local, local, one) + cross + cross.T
    else:
        raise ValueError(f"cannot take moments of {type(state).__name__}")
    second = (gram + gram.T) / 2
    return _real_array(mean, "expectation value"), _real_array(second, "second moment")


def _rotated_diagonal(u: np.ndarray, space: HilbertSpace, matrix: np.ndarray) -> np.ndarray:
    """diag(U M U^dagger) for U = u x u x ... x u, one site at a time.

    Right after a site is rotated only its diagonal is kept,
    new[x, i, r, s] = sum_ab u[i, a] conj(u[i, b]) t[x, a, r, b, s], where x
    runs over the sites already done: the array shrinks by d per site, and
    neither U M U^dagger nor any other dim x dim product is formed.
    """
    d = u.shape[0]
    pair = u[:, :, None] * u.conj()[:, None, :]
    t = matrix.reshape((1,) + matrix.shape)
    for _ in range(space.n_sites):
        x, r = t.shape[0], t.shape[1] // d
        t = np.einsum("iab,xarbs->xirs", pair, t.reshape(x, d, r, d, r)).reshape(x * d, r, r)
    return t.reshape(-1)


def _collective_distribution(state, w: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """The law of L = sum_s l^(s) in the state, as ``(lowest, weights)``:
    L = (lowest + i) / 2 with probability weights[i], from the one-site
    eigenvalues ``w`` and eigenvector columns ``v`` of l.

    2 w must be integers, which is checked once, here.  L is diagonal in the
    product of the one-site eigenbases: a dense state is rotated site by site
    and its weights are binned by the sum of their sites' levels, so the law
    has O(n) support.  A density matrix keeps only the diagonal of each site
    once it is rotated (``_rotated_diagonal``).  For a ProductState L adds
    over the blocks, so its law is the convolution of the blocks'.
    """
    twice = np.rint(2 * w)
    if np.abs(w - twice / 2).max() > _HALF_INTEGER_TOL:
        raise ValueError("a one-site eigenvalue lies off the half-integer grid")
    low = int(twice.min())
    levels = (twice - low).astype(int)
    rotation = v.conj().T
    weights = np.ones(1)
    for block in state.blocks if isinstance(state, ProductState) else (state,):
        space = block.space
        if isinstance(block, PureState):
            every_site = {s: rotation for s in range(1, space.n_sites + 1)}
            p = np.abs(_apply_product(every_site, space, block.amplitudes)) ** 2
        elif isinstance(block, DensityMatrix):
            p = np.real(_rotated_diagonal(rotation, space, block.matrix))
        else:
            raise ValueError(f"cannot take moments of {type(block).__name__}")
        level_sums = sum(np.ix_(*(levels,) * space.n_sites)).ravel()
        weights = np.convolve(weights, np.bincount(level_sums, weights=p))
    return low * state.space.n_sites, weights
