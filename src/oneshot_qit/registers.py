"""Register-labeled dense complex linear algebra.

Every state in the toolkit is a dense matrix or vector over an ordered list of
labeled tensor factors (a :class:`RegisterSystem`).  Registers are addressed by
string label because the protocols relabel and permute factors constantly.
Dimensions stay small (a few thousand at most), so everything is dense numpy.
Operators act on labelled registers through :func:`act`.  Maps that take
basis vectors to basis vectors up to a phase (basis permutations, support
compressions, Heisenberg-Weyl rotations) are :class:`Monomial` values,
applied by gathering; only this module maps factor layouts to flat indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_FLOOR = 1e-9
NORM_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    """A governing inequality, ``achieved`` ``sense`` ``limit`` up to ``slack``
    ("==": |achieved - limit| <= slack), so a NaN never holds; ``margin``
    is how far ``achieved`` lies inside ``limit``, slack aside."""

    name: str
    achieved: float
    limit: float
    sense: str = "<="
    slack: float = 0.0

    @property
    def holds(self):
        a, lim, s = self.achieved, self.limit, self.slack
        return bool({"<=": a <= lim + s, ">=": a >= lim - s,
                     "==": abs(a - lim) <= s}[self.sense])

    @property
    def margin(self):
        gap = float(self.limit - self.achieved)
        return {"<=": gap, ">=": -gap, "==": -abs(gap)}[self.sense] + 0.0  # no -0

    def require(self):
        """Raise AssertionError, naming the values, unless the check holds."""
        if not self.holds:
            raise AssertionError(f"{self.name} failed: achieved {self.achieved:.6g} "
                                 f"outside {self.sense} {self.limit:.6g} (margin {self.margin:.3g})")


# Above this side length, constructor-time PSD checks are skipped (O(d^3)).
_PSD_CHECK_MAX_DIM = 512


class RegisterSystem:
    """Ordered labeled tensor factors with dimensions."""

    def __init__(self, registers):
        regs = tuple((str(label), int(dim)) for label, dim in registers)
        labels = [lab for lab, _ in regs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate register labels in {labels}")
        for lab, dim in regs:
            if dim < 1:
                raise ValueError(f"register {lab!r} has dimension {dim} < 1")
        self.registers = regs

    @property
    def labels(self):
        return tuple(lab for lab, _ in self.registers)

    @property
    def dims(self):
        return tuple(dim for _, dim in self.registers)

    @property
    def total_dim(self):
        return math.prod(self.dims)

    def dim_of(self, label):
        return self.registers[self.position(label)][1]

    def position(self, label):
        for k, (lab, _) in enumerate(self.registers):
            if lab == label:
                return k
        raise KeyError(f"no register labeled {label!r}")

    def axes(self, labels):
        """Factor positions of distinct labels, in the order given."""
        labels = list(labels)
        if len(set(labels)) != len(labels) or not set(labels) <= set(self.labels):
            raise ValueError(f"{labels} are not distinct registers of {self.labels}")
        return [self.position(lab) for lab in labels]

    def subsystem(self, labels):
        return RegisterSystem([(lab, self.dim_of(lab)) for lab in labels])

    def __len__(self):
        return len(self.registers)

    def __repr__(self):
        inner = ", ".join(f"{lab}:{dim}" for lab, dim in self.registers)
        return f"RegisterSystem({inner})"


class DensityOperator:
    """Complex square matrix over a RegisterSystem, Hermitian, PSD and of
    trace 1 within tolerance.

    The matrix is read-only (an array passed in is frozen, not copied), so
    its eigensystem is solved at most once.
    """

    def __init__(self, system, matrix, validate=True):
        self.system = system
        mat = np.asarray(matrix, dtype=complex)
        d = system.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        mat.flags.writeable = False
        self.matrix = mat
        self._eig = None
        if validate:
            self._validate()

    def _eigh(self):
        """np.linalg.eigh of the matrix, solved on first use; read-only."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            vals.flags.writeable = vecs.flags.writeable = False
            self._eig = vals, vecs
        return self._eig

    def _validate(self):
        mat = self.matrix
        if not float(np.max(np.abs(mat - mat.conj().T))) <= HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(self.trace() - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {self.trace()} != 1 within tolerance")
        if self.system.total_dim <= _PSD_CHECK_MAX_DIM:
            lam_min = float(np.linalg.eigvalsh(mat)[0])
            if lam_min < -EIG_FLOOR:
                raise ValueError(f"negative eigenvalue {lam_min}")

    @property
    def total_dim(self):
        return self.system.total_dim

    def trace(self):
        return float(np.real(np.trace(self.matrix)))

    def purity(self):
        """Tr(M M) as one contraction of M_ij M_ji, with no d x d temporary."""
        return float(np.real(np.einsum("ij,ji->", self.matrix, self.matrix)))

    def __repr__(self):
        return f"DensityOperator({self.system!r})"


class PureState(DensityOperator):
    """Complex unit vector over a RegisterSystem, with its density operator
    |v><v| as the matrix.  Both are read-only (a vector passed in is frozen,
    not copied); the norm check is the whole validation, so building one
    solves no eigensystem."""

    def __init__(self, system, vector, validate=True):
        vec = np.asarray(vector, dtype=complex)
        vec.flags.writeable = False
        vec = vec.reshape(-1)
        if vec.shape != (system.total_dim,):
            raise ValueError(f"vector length {vec.shape[0]} != {system.total_dim}")
        if validate and abs(np.linalg.norm(vec) - 1.0) > NORM_TOL:
            raise ValueError(f"norm {np.linalg.norm(vec)} != 1 within tolerance")
        super().__init__(system, np.outer(vec, vec.conj()), validate=False)
        self.vector = vec

    def __repr__(self):
        return f"PureState({self.system!r})"


def _check_dims(rho, sigma):
    """Refuses two states of different dimensions."""
    if rho.system.dims != sigma.system.dims:
        raise ValueError("dimension mismatch between states")


def tensor(*ops):
    """Kronecker product of density operators; register lists concatenate
    and RegisterSystem refuses a label that two factors share."""
    if len(ops) < 2:
        raise ValueError("tensor needs at least two operators")
    system = RegisterSystem([rd for op in ops for rd in op.system.registers])
    mat = ops[0].matrix
    for op in ops[1:]:
        mat = np.kron(mat, op.matrix)
    return DensityOperator(system, mat, validate=False)


def partial_trace(op, drop):
    """Marginal after tracing out the registers in ``drop`` (order preserved)."""
    drop = set(drop)
    keep = [lab for lab in op.system.labels if lab not in drop]
    dims = list(op.system.dims)
    tens = op.matrix.reshape(dims + dims)
    # trace out from the rightmost dropped factor to keep axis indices stable;
    # position() refuses an unknown label
    positions = sorted((op.system.position(lab) for lab in drop), reverse=True)
    for pos in positions:
        tens = np.trace(tens, axis1=pos, axis2=pos + len(dims))
        dims.pop(pos)
    system = op.system.subsystem(keep) if keep else RegisterSystem([("scalar", 1)])
    mat = tens.reshape(system.total_dim, system.total_dim)
    return DensityOperator(system, mat, validate=False)


def reorder(mat, dims, order):
    """Matrix over the factors ``dims`` with the factors moved into ``order``."""
    n = len(dims)
    tens = np.asarray(mat).reshape(tuple(dims) * 2)
    return tens.transpose(list(order) + [k + n for k in order]).reshape(mat.shape)


def permute_registers(op, new_order):
    """Same operator with its tensor factors reordered to ``new_order``."""
    new_order = list(new_order)
    if sorted(new_order) != sorted(op.system.labels):
        raise ValueError(f"{new_order} is not a permutation of {op.system.labels}")
    perm = [op.system.position(lab) for lab in new_order]
    return DensityOperator(op.system.subsystem(new_order),
                           reorder(op.matrix, op.system.dims, perm),
                           validate=False)


def _psd_sqrt(vals, vecs):
    """Hermitian square root from an eigensystem, eigenvalues clamped to >= 0."""
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def sqrtm_psd(matrix):
    """Hermitian square root with eigenvalues clamped to [0, inf)."""
    return _psd_sqrt(*np.linalg.eigh(matrix))


def _root_sum(vals):
    """Tr sqrt(M) from the eigenvalues of M >= 0 (zeros optional); callers clip."""
    # eigensolve noise ~1e-16 inflates to ~1e-8 under sqrt; clip relative to top
    floor = max(float(np.max(vals)), 0.0) * 1e-13
    return float(np.sum(np.sqrt(np.where(vals > floor, vals, 0.0))))


def fidelity(rho, sigma):
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1, via one Hermitian eigensolve."""
    _check_dims(rho, sigma)
    s = _psd_sqrt(*rho._eigh())
    f = _root_sum(np.linalg.eigvalsh(s @ sigma.matrix @ s))
    return min(f, 1.0) if f <= 1.0 + 1e-7 else f


def purified_distance(rho, sigma):
    """P(rho, sigma) = sqrt(1 - F^2)."""
    f = fidelity(rho, sigma)
    return float(np.sqrt(max(0.0, 1.0 - f * f)))


def canonical_purification(rho, mirror_label):
    """Purification (sqrt(rho) (x) I) sum_i |i>|i> on system (A, mirror)."""
    if len(rho.system) != 1:
        raise ValueError("canonical purification expects a single-register state")
    lab, d = rho.system.registers[0]
    # RegisterSystem refuses a mirror label equal to the state's label
    system = RegisterSystem([(lab, d), (mirror_label, d)])
    vec = _psd_sqrt(*rho._eigh()).reshape(-1)  # row-major: component (a, b) = sqrt(rho)[a, b]
    vec = vec / np.linalg.norm(vec)
    return PureState(system, vec, validate=False)


def maximally_mixed(system):
    d = system.total_dim
    return DensityOperator(system, np.eye(d) / d, validate=False)


def basis_state(system, index):
    """Computational basis state |index> (flat index into the joint basis)."""
    d = system.total_dim
    if not 0 <= index < d:
        raise ValueError(f"basis index {index} out of range for dim {d}")
    vec = np.zeros(d, dtype=complex)
    vec[index] = 1.0
    return PureState(system, vec, validate=False)


def maximally_entangled(label_a, label_b, dim):
    """(1/sqrt(d)) sum_i |i>_A |i>_B."""
    system = RegisterSystem([(label_a, dim), (label_b, dim)])
    vec = np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim)
    return PureState(system, vec, validate=False)


def random_density(seed, system, rank=None):
    """Seeded random density operator of the given rank (Ginibre construction).

    G G^dag / Tr, Hermitised as (M + M^dag) / 2, with each step one in-place
    pass over the entries: the real and imaginary draws fill one complex G,
    and the scale and the halving multiply the real view (numpy divides a
    complex by a real as this same product), so the bits are those of the
    plain expression and the peak is at most 3 d^2 complex entries.
    """
    d = system.total_dim
    rank = d if rank is None else int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range [1, {d}]")
    rng = np.random.default_rng(seed)
    g = np.empty((d, rank), dtype=complex)
    g.real = rng.standard_normal((d, rank))
    g.imag = rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    parts = mat.view(float)
    parts *= 1.0 / np.real(np.trace(mat))
    mat += mat.conj().T
    parts *= 0.5
    return DensityOperator(system, mat, validate=False)


def act(mat, op, dims, axes):
    """op . mat . op^dag with ``op`` acting on the factors ``axes`` of ``dims``.

    ``mat`` is a square matrix over the tensor factors ``dims`` (row-major);
    ``op`` is any square matrix (unitary or Kraus operator) on the factors
    ``axes`` taken in the given order, which need not be adjacent.  Costs
    d^2 d_act by two tensor contractions; no identity-padded product is built.
    """
    mat, dims, axes = np.asarray(mat), tuple(dims), list(axes)
    n, k = len(dims), len(axes)
    sub = tuple(dims[ax] for ax in axes)
    op_t = np.asarray(op).reshape(sub + sub)
    ins = list(range(k, 2 * k))
    tens = np.tensordot(op_t, mat.reshape(dims + dims), axes=(ins, axes))
    tens = np.moveaxis(tens, range(k), axes)
    cols = [n + ax for ax in axes]
    tens = np.tensordot(tens, op_t.conj(), axes=(cols, ins))
    tens = np.moveaxis(tens, range(2 * n - k, 2 * n), cols)
    return tens.reshape(mat.shape)


def _take(arr, idx):
    """arr[..., idx] map by map along the last axis; leading axes broadcast."""
    lead = np.broadcast_shapes(arr.shape[:-1], idx.shape[:-1])
    return np.take_along_axis(np.broadcast_to(arr, lead + arr.shape[-1:]),
                              np.broadcast_to(idx, lead + idx.shape[-1:]), -1)


class Monomial:
    """A monomial map (M x)[i] = phase[i] x[src[i]], or a family of them.

    ``src`` (..., n) holds distinct indices per map and ``phase`` their
    phases (None for unit phases); leading axes index the maps of a family.
    M[i, src[i]] = phase[i] is a unitary when src permutes 0..n-1, else the
    compression onto n basis states of a larger space.  Every method gathers.
    """

    def __init__(self, src, phase=None):
        self.src = np.asarray(src)
        self.phase = None if phase is None \
            else np.broadcast_to(phase, self.src.shape)

    def __getitem__(self, key):
        """The maps and rows at ``key``, an index into ``src``."""
        return Monomial(self.src[key],
                        None if self.phase is None else self.phase[key])

    def lift(self, dims, axes):
        """The map on the factors ``axes`` of ``dims`` (in that order, not
        necessarily adjacent) as a map on the whole space.  A compression
        needs adjacent ascending ``axes``, which merge into one factor of
        its n states."""
        dims, axes = tuple(dims), list(axes)
        k, lead, n = len(axes), self.src.shape[:-1], self.src.shape[-1]
        sub, b = tuple(dims[ax] for ax in axes), len(lead)
        grid = np.moveaxis(np.arange(int(np.prod(dims))).reshape(dims), axes,
                           range(k))
        rest = grid.shape[k:]
        parts = [grid.reshape((-1,) + rest)[self.src]]
        if self.phase is not None:      # each entry takes its state's phase
            parts.append(np.broadcast_to(
                self.phase[(...,) + (None,) * len(rest)], parts[0].shape))
        if n == int(np.prod(sub)):
            parts = [np.moveaxis(p.reshape(lead + sub + rest), range(b, b + k),
                                 [b + ax for ax in axes]) for p in parts]
        elif axes != list(range(axes[0], axes[0] + k)):
            raise ValueError(f"a compression needs adjacent ascending axes, "
                             f"not {axes}")
        else:
            parts = [np.moveaxis(p, b, b + axes[0]) for p in parts]
        return Monomial(*(p.reshape(lead + (-1,)) for p in parts))

    def embed(self, index, size):
        """The map on the basis states ``index`` of ``size`` states, the
        identity on the others."""
        index = np.asarray(index)
        src = np.broadcast_to(np.arange(size),
                              self.src.shape[:-1] + (size,)).copy()
        src[..., index] = index[self.src]
        if self.phase is None:
            return Monomial(src)
        phase = np.ones(src.shape, dtype=complex)
        phase[..., index] = self.phase
        return Monomial(src, phase)

    def inverse(self, size=None):
        """M^-1 = M^dag.  A compression onto n of ``size`` states inverts to
        the embedding M^dag, whose other states read index -1 at phase 0."""
        n = self.src.shape[-1]
        src = np.full(self.src.shape[:-1] + (size or n,), -1)
        np.put_along_axis(src, self.src,
                          np.broadcast_to(np.arange(n), self.src.shape), -1)
        if self.phase is None:
            return Monomial(src, None if size in (None, n) else (src >= 0) * 1.0)
        pad = np.zeros_like(self.phase[..., :1])
        return Monomial(src, _take(np.append(self.phase.conj(), pad, axis=-1),
                                   src))

    def transpose(self):
        """M^T: the inverse with unconjugated phases."""
        inv = self.inverse()
        return inv if inv.phase is None else Monomial(inv.src, inv.phase.conj())

    def compose(self, other):
        """M N as one map: M.compose(N).apply(x) = M.apply(N.apply(x))."""
        phase = None if other.phase is None else _take(other.phase, self.src)
        if self.phase is not None:
            phase = self.phase if phase is None else self.phase * phase
        return Monomial(_take(other.src, self.src), phase)

    def apply(self, x):
        """M x for ``x`` (size, cols): rows gathered by src, times the phases."""
        out = np.asarray(x)[self.src]
        return out if self.phase is None else self.phase[..., None] * out

    def conjugate(self, mat):
        """M mat M^dag, one matrix per map of a family, at O(n^2) each.

        ``mat`` is an array or a function that reads its entries at the
        (rows, cols) index arrays it is given."""
        rows, cols = self.src[..., :, None], self.src[..., None, :]
        out = mat(rows, cols) if callable(mat) else np.asarray(mat)[rows, cols]
        if self.phase is None:
            return out
        return self.phase[..., :, None] * out * self.phase.conj()[..., None, :]


def kron_eye_entries(factor, f, rows, cols):
    """Entries [rows, cols] of factor (x) I_f, read without building it.

    Entry (i, j) is factor[i // f, j // f] when i % f == j % f, and 0
    otherwise; ``rows`` and ``cols`` are int arrays that broadcast.
    """
    return np.where(rows % f == cols % f, factor[rows // f, cols // f], 0)


def kron_eye_nonzeros(factor, f, maps):
    """Where each M (factor (x) I_f) M^dag of the `Monomial` family ``maps``
    (n_maps, n) is nonzero: (i, j, hit), each (n_maps, nnz), the nonzeros of
    factor (x) I_f read through every inverse map, ``hit`` false where one
    falls outside the image of a compression."""
    inverse = maps.inverse(len(factor) * f).src
    rows, cols = (np.ravel(k[:, None] * f + np.arange(f))
                  for k in np.nonzero(factor))
    i, j = inverse[:, rows], inverse[:, cols]
    return i, j, (i >= 0) & (j >= 0)


def _components(rows, cols, n):
    """Connected-component label per node 0..n-1 of the edges (rows, cols).

    Each node takes the smallest label of itself and its neighbours (edges
    count both ways), then follows that label to its own label; at the fixed
    point every component carries its smallest node.  Labels only decrease,
    so the loop ends.
    """
    keep = rows != cols     # a self-loop joins nothing
    rows, cols = rows[keep], cols[keep]
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _size_groups(labels):
    """The nodes of each component of ``labels``: one (n_blocks, size) array
    per block size, in ascending size, blocks ordered by smallest node and
    nodes ascending within a block."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]        # per component, in the order of `order`
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == size][:, None] + np.arange(size)]
            for size in sorted(set(sizes.tolist()))]


def _pattern_blocks(*mats):
    """`_size_groups` of the components of the union of the exact nonzero
    patterns of ``mats``, Hermitian matrices or stacks (..., n, n) of one n.

    Nothing is thresholded: every matrix of every stack is exactly
    block-diagonal on the result.
    """
    n = mats[0].shape[-1]
    union = np.zeros((n, n), dtype=bool)
    for mat in mats:
        union |= (mat != 0).reshape(-1, n, n).any(axis=0)
    if union.all():
        return [np.arange(n)[None]]
    return _size_groups(_components(*np.nonzero(union), n))


def _block_eigvalsh(mat, blocks=None):
    """Eigenvalues (..., n) of the Hermitian matrix or stack ``mat`` (..., n, n).

    ``mat`` is solved on ``blocks`` (`_pattern_blocks`, by default of
    ``mat`` alone) in one stacked eigvalsh per block size, eigenvalues in
    the order of the blocks; one block of size n is solved as it stands.
    With ``blocks`` given, ``mat`` may be a function that reads the entries
    at the (rows, cols) index arrays it is given: only the blocks are built.
    """
    if not callable(mat):
        blocks = _pattern_blocks(mat) if blocks is None else blocks
        if blocks[0].shape[1] == mat.shape[-1]:
            return np.linalg.eigvalsh(mat)
    read = mat if callable(mat) else lambda rows, cols: mat[..., rows, cols]
    vals = [np.linalg.eigvalsh(read(idx[:, :, None], idx[:, None, :]))
            for idx in blocks]
    return np.concatenate([v.reshape(v.shape[:-2] + (-1,)) for v in vals],
                          axis=-1)


def apply_unitary(op, unitary, labels):
    """Conjugate by a unitary on the named registers (in the order given).

    The unitary's dimension must match the product of the named registers'
    dimensions; the registers need not be adjacent in the system order.
    """
    axes = op.system.axes(labels)
    d_act = int(np.prod([op.system.dims[ax] for ax in axes]))
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (d_act, d_act):
        raise ValueError(f"unitary shape {u.shape} != ({d_act}, {d_act})")
    return DensityOperator(op.system, act(op.matrix, u, op.system.dims, axes), validate=False)


def dump_matrix(op, fh):
    """Write row-major complex pairs, full precision decimal, one row per line."""
    for row in op.matrix:
        fh.write(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n")
