"""States and operators over tensor-product Hilbert spaces.

States and operators are immutable value objects validated at construction:
pure states carry unit norm, density matrices are Hermitian trace-one
positive-semidefinite (up to small numerical floors), operators know whether
they are meant to be Hermitian.  These three hold dense arrays over the whole
space.  A ProductState holds a product of small dense states on consecutive
sites instead, a SectorState the real amplitudes of a qubit chain on the
indices of one popcount, and a StabilizerState the Pauli generators of a
qubit-chain stabilizer state as integer bit masks; none holds an array over
its whole space.  Sites are numbered from 1 and site 1 is the most
significant index of the composite basis (big-endian), a convention shared
by every module built on top of this one.
The readers here (``_local_mean``, ``_sum_moments``, ``_pauli_moments``,
``_collective_moments`` and ``_collective_distribution``) are the only code
that reads how a state is stored; a SectorState is read by
``_collective_moments`` alone and a StabilizerState by the last three.
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
# S_z sector C(n, n // 2) in heisenberg_ground_state, whose state stays in that sector
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


def _popcount(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Number of set bits among the lowest ``n_bits`` of each entry."""
    return sum(((values >> shift) & 1 for shift in range(n_bits)), np.zeros_like(values))


def _sector_ranks(values: np.ndarray, n_bits: int) -> np.ndarray:
    """The position of each index among the ascending indices of its popcount:
    its c-th lowest set bit, at s, adds C(s, c) (the combinatorial number system)."""
    rank, seen = np.zeros_like(values), np.zeros_like(values)
    for s in range(n_bits):
        bit = (values >> s) & 1
        seen += bit
        rank += bit * np.array([math.comb(s, c) for c in range(n_bits + 1)])[seen]
    return rank


class SectorState(Record, eq=False):
    """Real unit amplitudes of a qubit chain on ascending indices ``states``
    that share one popcount, set as ``popcount``; every other amplitude is 0."""

    space: HilbertSpace
    states: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.space.kind != "qubit" or np.iscomplexobj(self.amplitudes):
            raise ValueError("a sector state holds real amplitudes of a qubit chain")
        states, amps = np.array(self.states, dtype=np.int64), np.array(self.amplitudes, dtype=float)
        if amps.ndim != 1 or amps.shape != states.shape:
            raise ValueError(f"need one amplitude per sector index, got {amps.shape} for {states.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes contains NaN or Inf entries")
        if not states.size or states[0] < 0 or states[-1] >= self.space.dim or np.any(np.diff(states) <= 0):
            raise ValueError(f"sector indices must ascend strictly inside [0, {self.space.dim})")
        counts = _popcount(states, self.space.n_sites)
        if np.any(counts != counts[0]):
            raise ValueError("sector indices must share one popcount")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        states.setflags(write=False)
        amps.setflags(write=False)
        for name, value in (("states", states), ("amplitudes", amps), ("popcount", int(counts[0]))):
            object.__setattr__(self, name, value)


def _pauli_bits(factors: Mapping[int, str], sign: int = 1) -> tuple[int, int, int]:
    """sign * prod_s sigma_{factors[s]}^(s) as (x, z, e), the operator i^e X^x Z^z: site s
    is bit s - 1 of x and z, and y = i x z sets both bits and adds 1 to e."""
    x = z = 0
    for site, axis in factors.items():
        if axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
        bit = 1 << (site - 1)
        x |= bit if axis != "z" else 0
        z |= bit if axis != "x" else 0
    return x, z, (sum(a == "y" for a in factors.values()) + 1 - sign) % 4


def _times(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product a b of two (x, z, e) strings: Z^z_a X^x_b = (-1)^|z_a & x_b| X^x_b Z^z_a."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()) % 4


class StabilizerState(Record, eq=False):
    """The qubit-chain state stabilized by commuting, independent Pauli
    generators ``(factors, sign)``, each sign * prod_s sigma_{factors[s]}^(s)
    with ``factors`` a {site: "x" | "y" | "z"} map: rho = prod_g (I + g) / 2^n.
    Fewer than n generators leave the rest maximally mixed; none is I / 2^n.

    The generators are reduced once, by Gaussian elimination over GF(2), to
    ``table``: rows (lead, x, z, e) of the stabilizer group in echelon form,
    ``lead`` being the leading bit of x << n | z, and no row holding the lead
    of a row before it.  Nothing is held per amplitude."""

    space: HilbertSpace
    generators: tuple

    def __post_init__(self):
        space = self.space
        if space.kind != "qubit":
            raise ValueError("a stabilizer state lives on a qubit chain")
        generators, table = tuple((dict(f), s) for f, s in self.generators), []
        for factors, sign in generators:
            if sign not in (-1, 1):
                raise ValueError(f"a generator's sign must be +1 or -1, got {sign!r}")
            for site in factors:
                space.check_site(site)
            g = _pauli_bits(factors, sign)
            if any(((g[0] & h[2]) ^ (g[1] & h[1])).bit_count() % 2 for h in table):
                raise ValueError(f"generator {factors} does not commute with the ones before it")
            x, z, e = _reduce(table, space.n_sites, g)
            if not x | z:
                raise ValueError(f"generator {factors} is not independent of the ones before it")
            table.append((1 << ((x << space.n_sites | z).bit_length() - 1), x, z, e))
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "table", tuple(table))


def _reduce(table, n_sites: int, p: tuple[int, int, int]) -> tuple[int, int, int]:
    """p times each row of ``table`` whose lead it holds, in order: no later row
    holds that lead, so none is left in the result, which is I exactly when p is
    in the span of the rows."""
    for lead, *row in table:
        if (p[0] << n_sites | p[1]) & lead:
            p = _times(p, row)
    return p


class GroundState(Record, eq=False):
    energy: float
    state: PureState | SectorState
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

    ``_local_mean`` and ``_collective_moments`` read a density matrix so: the
    K^2 means <L_k L_l> applied to its rows would cost O(K^2 n d dim^2).
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
    density matrix takes Tr(F B), F their kron product and B its block on
    their sites (``_site_block``), and a ProductState multiplies its blocks'
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
        block = _site_block(space, sites, state.matrix)
        if sites:
            kept = HilbertSpace(tuple(space.dims[s - 1] for s in sites), "generic")
            block = _apply_product({i: factors[s] for i, s in enumerate(sites, 1)}, kept, block)
        return complex(np.trace(block))
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


def _pauli_moments(state, strings: Sequence[Mapping[int, str]], paulis) -> tuple[float, float]:
    """<S> and <S^2> for the sum S of Pauli strings {site: "x" | "y" | "z"}.

    A StabilizerState is read exactly, from its table: <P> = i^e when the
    table reduces P to i^e I and 0 otherwise, as Tr(rho P g) = Tr(rho P) for
    every stabilizer g, and <S^2> sums <P_a P_c> over every pair of strings.
    Any other state goes to ``_sum_moments`` with the one-site matrices of
    ``paulis()`` (x, y, z stacked), which is called only then.
    """
    if not isinstance(state, StabilizerState):
        pauli = dict(zip("xyz", paulis()))
        return _sum_moments(state, [{s: pauli[a] for s, a in f.items()} for f in strings])
    ps = [_pauli_bits(f) for f in strings]
    first = sum(_stabilizer_mean(state, p) for p in ps)
    second = sum(_stabilizer_mean(state, _times(a, c)) for a in ps for c in ps)
    return _real_part(complex(first), "expectation value"), _real_part(complex(second), "second moment")


def _stabilizer_mean(state: StabilizerState, p: tuple[int, int, int]) -> complex:
    """<P> = i^e when the table reduces P to i^e I, else 0; an int for a Hermitian P."""
    x, z, e = _reduce(state.table, state.space.n_sites, p)
    return 0 if x | z else (1, 1j, -1, -1j)[e]


def _real_array(values: np.ndarray, what: str) -> np.ndarray:
    return np.array([_real_part(complex(v), what) for v in values.flat]).reshape(values.shape)


def _flip_norm(state: SectorState, bit: int) -> float:
    """|sum_s f_s psi|^2, f_s flipping site s where it holds ``bit``: R psi
    clears a set bit (bit 1) and F psi sets a clear one (bit 0).  The sum lies
    in the sector of popcount p - 1 or p + 1, binned there by rank, one
    ``np.bincount`` per site."""
    n, states, psi = state.space.n_sites, state.states, state.amplitudes
    target = state.popcount + 1 - 2 * bit
    out = np.zeros(math.comb(n, target) if target >= 0 else 0)
    for s in range(n):
        mine = ((states >> s) & 1) == bit
        out += np.bincount(_sector_ranks(states[mine] ^ (1 << s), n), psi[mine], minlength=out.size)
    return float(out @ out)


def _collective_moments(state, local) -> tuple:
    """<L_k> and the symmetrized <(L_k L_l + L_l L_k) / 2> for the site sums
    L_k = sum_s l_k^(s) of the (K, d, d) stack of one-site matrices l = ``local()``.

    No dim x dim operator is built, and only the dense branches call ``local``.
    A StabilizerState's stack is the qubit spin sigma / 2 (x, y, z), read
    exactly as lists: <J_a> sums <sigma_a^s> / 2, and 4 <J_a J_b> sums
    <sigma_a^s sigma_b^t> over s != t, plus n where a == b.  A pure state
    takes v_k = L_k psi, applied site by site, and inner products.  A density
    matrix is read through its one- and two-site blocks: <L_k> and the
    same-site terms sum_s Tr(l_k l_l rho_s) come from the sum of the one-site blocks rho_s,
    and the cross terms from the sum over pairs s < t of the two-site blocks
    rho_st, as Tr((l_k x l_l) rho_st) plus its transpose.  A ProductState is
    read block by block: the means add, and
    <L_k L_l> = sum_b <L_k L_l>_b + sum_{b != c} <L_k>_b <L_l>_c.  On a
    SectorState of popcount p, L_k psi = delta_k psi + b_k R psi + c_k F psi
    with delta_k = (n - p) l_k[0, 0] + p l_k[1, 1], b_k = l_k[0, 1] and
    c_k = l_k[1, 0], three parts in three sectors: <L_k> = delta_k, and
    <L_k L_l> needs only |R psi|^2 and |F psi|^2 (``_flip_norm``).
    """
    if isinstance(state, StabilizerState):
        sites = range(1, state.space.n_sites + 1)
        mean = [sum(_stabilizer_mean(state, _pauli_bits({s: a})) for s in sites) / 2 for a in "xyz"]
        second = [[(len(sites) * (a == b) + sum(_stabilizer_mean(state, _pauli_bits({s: a, t: b}))
                                                for s in sites for t in sites if s != t)) / 4
                   for b in "xyz"] for a in "xyz"]
        return mean, second
    if isinstance(state, ProductState):
        stack = local()
        parts = [_collective_moments(block, lambda: stack) for block in state.blocks]
        mean = sum(m for m, _ in parts)
        # sum_{b != c} m_b m_c^T is (sum_b m_b)(sum_c m_c)^T less the b == c terms
        return mean, sum(s - np.outer(m, m) for m, s in parts) + np.outer(mean, mean)
    space, local = state.space, local()
    if isinstance(state, PureState):
        psi = state.amplitudes
        v = _site_sum(local, space, psi)
        mean = v @ psi.conj()
        gram = v.conj() @ v.T
    elif isinstance(state, SectorState):
        p = state.popcount
        mean = (space.n_sites - p) * local[:, 0, 0] + p * local[:, 1, 1]
        gram = np.outer(mean.conj(), mean)
        for bit, part in ((1, local[:, 0, 1]), (0, local[:, 1, 0])):
            gram = gram + np.outer(part.conj(), part) * _flip_norm(state, bit)
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


def _collective_distribution(state, axis: str | None, eigenbasis) -> tuple[int, Sequence[float]]:
    """The law of L = sum_s l^(s) in the state, as ``(lowest, weights)``:
    L = (lowest + i) / 2 with probability weights[i], from the one-site
    eigenvalues w and eigenvector columns v of l, ``eigenbasis()`` = (w, v).

    2 w must be integers, which is checked once, here.  L is diagonal in the
    product of the one-site eigenbases: a dense state is rotated site by site
    and its weights are binned by the sum of their sites' levels, so the law
    has O(n) support.  A density matrix is rotated on its rows twice,
    p = diag(U (U rho)^dagger), with the site application of a pure state.
    For a ProductState L adds over the blocks, so its law is the convolution
    of the blocks'.  A StabilizerState is read as ``_stabilizer_law`` along
    ``axis``, the x, y or z that l = sigma_axis / 2 points along, with no
    call of ``eigenbasis``; it has no law along a tilted l (``axis`` None).
    """
    if isinstance(state, StabilizerState):
        if axis is None:
            raise ValueError("cannot take moments of StabilizerState off the x, y and z axes")
        return _stabilizer_law(state, axis)
    w, v = eigenbasis()
    twice = np.rint(2 * w)
    if np.abs(w - twice / 2).max() > _HALF_INTEGER_TOL:
        raise ValueError("a one-site eigenvalue lies off the half-integer grid")
    low = int(twice.min())
    levels = (twice - low).astype(int)
    rotation = v.conj().T
    weights = np.ones(1)
    for block in state.blocks if isinstance(state, ProductState) else (state,):
        space = block.space
        every_site = {s: rotation for s in range(1, space.n_sites + 1)}
        if isinstance(block, PureState):
            p = np.abs(_apply_product(every_site, space, block.amplitudes)) ** 2
        elif isinstance(block, DensityMatrix):
            half = _apply_product(every_site, space, block.matrix)
            p = np.real(np.diagonal(_apply_product(every_site, space, half.conj().T)))
        else:
            raise ValueError(f"cannot take moments of {type(block).__name__}")
        level_sums = sum(np.ix_(*(levels,) * space.n_sites)).ravel()
        weights = np.convolve(weights, np.bincount(level_sums, weights=p))
    return low * state.space.n_sites, weights


def _stabilizer_law(state: StabilizerState, axis: str) -> tuple[int, list[float]]:
    """The law of J_axis, exact, on the step-1/2 grid from -n/2.

    The code C = {S : +-sigma_axis^S in the group} is the span of the table's
    combinations whose part off the axis cancels (z for x, x for z, x xor z
    for y), found by elimination over GF(2); the sign s(S) = <sigma_axis^S>
    is a character on C.  The outcomes with w spins at -1/2 have probability
    sum_{S in C} s(S) K_w(|S|) / 2^n, K_w the Krawtchouk polynomial
    sum_i (-1)^i C(|S|, i) C(n - |S|, w - i), an integer over 2^n."""
    n, pivots, code = state.space.n_sites, {}, []
    for _, x, z, _ in state.table:
        off, on = {"x": (z, x), "y": (x ^ z, x), "z": (x, z)}[axis]
        while off:
            top = off.bit_length()
            if top not in pivots:
                pivots[top] = off, on
                break
            off, on = off ^ pivots[top][0], on ^ pivots[top][1]
        else:
            code.append(on)
    elements = [(0, 1)]
    for s in code:
        sign = _stabilizer_mean(state, _pauli_bits({k + 1: axis for k in range(n) if s >> k & 1}))
        elements += [(t ^ s, c * sign) for t, c in elements]
    enumerator = [0] * (n + 1)  # sum of s(S) over the S in C of each size
    for t, c in elements:
        enumerator[t.bit_count()] += c
    weights = [0.0] * (2 * n + 1)
    for w in range(n + 1):
        count = sum(a * (-1) ** i * math.comb(j, i) * math.comb(n - j, w - i)
                    for j, a in enumerate(enumerator) if a for i in range(min(j, w) + 1))
        weights[2 * (n - w)] = count / 2**n
    return -n, weights
