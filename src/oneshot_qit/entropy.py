"""One-shot information measures, base-2 throughout.

Covers relative entropy, max-relative entropy, hypothesis-testing relative
entropy (exact quantum Neyman-Pearson test; its threshold bracketed by the
breakpoints of the test and found by a safeguarded secant), conditional
min-entropy (small SDP solved by a log-barrier Newton method),
max-information, and the identity/inequality facts the bounds lean on.
Smoothed variants are exposed at epsilon = 0 only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .registers import (DensityOperator, _block_eigvalsh, _check_dims,
                        _psd_sqrt, _root_sum, partial_trace,
                        permute_registers, tensor)

SUPPORT_TOL = 1e-10
_SUPPORT_MASS_TOL = 1e-8
# 64 ulp of 1: how closely the threshold test's sums resolve 1 - eps
TRACE_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class EntropyValue:
    """Real value in bits; +infinity encodes a support violation."""

    value: float

    @property
    def finite(self):
        return self.value != float("inf")

    @staticmethod
    def infinite():
        return EntropyValue(float("inf"))


def _support_split(rho, sigma):
    """(svals, svecs, pos, mass): sigma's eigensystem, its support mask
    (eigenvalues above SUPPORT_TOL) and the mass of rho on the kernel;
    refuses states of different dimensions."""
    _check_dims(rho, sigma)
    svals, svecs = sigma._eigh()
    pos = svals > SUPPORT_TOL
    ker = svecs[:, ~pos]
    mass = float(np.real(np.sum((ker.conj().T @ rho.matrix @ ker).diagonal())))
    return svals, svecs, pos, mass


def relative_entropy(rho, sigma):
    """Umegaki relative entropy D(rho||sigma) in bits; +inf on support violation."""
    rvals = rho._eigh()[0]
    svals, svecs, pos_s, mass_out = _support_split(rho, sigma)
    if mass_out > _SUPPORT_MASS_TOL:
        return EntropyValue.infinite()
    pos_r = rvals > SUPPORT_TOL
    term1 = float(np.sum(rvals[pos_r] * np.log2(rvals[pos_r])))
    # <v_j| rho |v_j> for sigma eigenvectors on the support
    vs = svecs[:, pos_s]
    diag = np.real(np.sum(vs.conj() * (rho.matrix @ vs), axis=0))
    term2 = float(np.sum(diag * np.log2(svals[pos_s])))
    return EntropyValue(term1 - term2)


def _entropy_sum(vals):
    """sum lambda log2 lambda over the eigenvalues above 1e-12."""
    pos = vals > 1e-12
    return float(np.sum(vals[pos] * np.log2(vals[pos])))


class Reference:
    """Fixed reference state A (x) diag(w): D(rho || .) and F(rho, .) from the factors.

    Only A is eigensolved, once.  Operators rho are dense matrices on the
    same (A, w) ordering; relative entropies are in bits and +inf when rho
    puts mass outside the support of A or of w, each cut at SUPPORT_TOL.
    rho and its sandwich are eigensolved by block (`_block_eigvalsh`).
    """

    def __init__(self, a_mat, w):
        self.a_dim = a_mat.shape[0]
        vals, vecs = np.linalg.eigh(a_mat)
        pos = vals > SUPPORT_TOL
        supp = vecs[:, pos]
        self.a_ker = vecs[:, ~pos]
        self.a_log = (supp * np.log2(vals[pos])) @ supp.conj().T
        self.a_proj = supp @ supp.conj().T
        self.a_sqrt = _psd_sqrt(vals, vecs)
        self._set_weights(w)

    def _set_weights(self, w):
        self.w = w = np.asarray(w, dtype=float)
        self.w_dim = len(w)
        self.w_supp = w > SUPPORT_TOL
        self.w_log = np.where(self.w_supp, np.log2(np.where(self.w_supp, w, 1.0)), 0.0)

    def _blocks(self, rho):
        return rho.reshape(self.a_dim, self.w_dim, self.a_dim, self.w_dim)

    def log_terms(self, rho):
        """(Tr rho (log2 A (x) P_w), Tr rho (P_A (x) diag(log2 w))); None on support violation.

        Linear in rho and reads it only through partial traces over the w
        factor weighted by functions of w, so conjugating rho by a permutation
        of the w-indices that preserves w leaves both terms unchanged.
        """
        rho_r = self._blocks(rho)
        wa = self.w_supp
        if not wa.all():
            mass = float(np.real(np.einsum("axax->", rho_r[:, ~wa][:, :, :, ~wa])))
            if mass > _SUPPORT_MASS_TOL:
                return None
        if self.a_ker.shape[1]:
            m1 = np.einsum("axbx->ab", rho_r)
            mass = float(np.real(np.trace(self.a_ker.conj().T @ m1 @ self.a_ker)))
            if mass > _SUPPORT_MASS_TOL:
                return None
        # Tr rho (log A (x) P_w)
        m_w = np.einsum("axbx,x->ab", rho_r, wa.astype(float))
        t1 = float(np.real(np.trace(m_w @ self.a_log)))
        # Tr rho (P_A (x) diag(log w))
        m_a = np.einsum("axbx,x->ab", rho_r, self.w_log)
        t2 = float(np.real(np.trace(m_a @ self.a_proj)))
        return t1, t2

    def rel_entropy(self, rho, blocks=None):
        """D(rho || A (x) diag(w)) in bits; inf on support violation.  rho
        is eigensolved on ``blocks``, by default its own pattern's."""
        terms = self.log_terms(rho)
        if terms is None:
            return float("inf")
        return _entropy_sum(_block_eigvalsh(rho, blocks)) - terms[0] - terms[1]

    def restricted(self, keep):
        """A (x) diag(w[keep]) on the w-indices ``keep``, sharing A's eigensystem."""
        out = copy.copy(self)
        out._set_weights(self.w[keep])
        return out

    def sandwich(self, rho, at=slice(None)):
        """sqrt(ref) rho sqrt(ref); for a stack rho (..., n, n), on the
        w-indices ``at`` (..., n / a_dim) of each matrix (all by default)."""
        w_sqrt = np.tile(np.sqrt(self.w)[at], self.a_dim)
        rho_w = rho * w_sqrt[..., None, :] * w_sqrt[..., :, None]
        tens = rho_w.reshape(rho.shape[:-2]
                             + (self.a_dim, rho.shape[-1] // self.a_dim) * 2)
        return np.einsum("ab,...bxcy,cd->...axdy", self.a_sqrt, tens,
                         self.a_sqrt).reshape(rho.shape)

    def fidelity(self, rho, blocks=None):
        """F(rho, A (x) diag(w)) = || sqrt(rho) sqrt(ref) ||_1, clipped to 1;
        the sandwich is eigensolved on ``blocks``, by default its own's."""
        return min(_root_sum(_block_eigvalsh(self.sandwich(rho), blocks)), 1.0)


def dmax(rho, sigma):
    """Max-relative entropy: log of the largest eigenvalue of the relative operator."""
    svals, svecs, pos, mass_out = _support_split(rho, sigma)
    if mass_out > _SUPPORT_MASS_TOL:
        return EntropyValue.infinite()
    vs = svecs[:, pos]
    inv_half = vs * (1.0 / np.sqrt(svals[pos]))
    rel = inv_half.conj().T @ rho.matrix @ inv_half
    lam = float(np.linalg.eigvalsh(rel)[-1])
    return EntropyValue(float(np.log2(max(lam, 1e-300))))


def _threshold_test(rho, sigma, eps):
    """Exact Neyman-Pearson test: minimize Tr(Pi sigma) s.t. Tr(Pi rho) >= 1-eps.

    Takes two states on one system and eps in [0, 1); returns
    (type2_weight, Pi).  The optimal test is a threshold test on
    rho - t*sigma: full weight on the eigenspace above the kernel tolerance
    1e-10 (1 + t), fractional weight on the kernel (|eigenvalue| within the
    tolerance) to meet the constraint with equality.

    t* is the least t with f(t) = Tr(Pi_{>tol}(rho - t sigma) rho) <= 1-eps,
    taken as the end point of a bisection on [0, t_top] to a relative width
    of 1e-12, and found with few eigensolves.  f is non-increasing and
    jumps only where an eigenvalue crosses the tolerance: at the generalized
    eigenvalues of (rho - 1e-10, sigma + 1e-10) on supp(sigma).  From 16
    clusters of these breakpoints on, with (lam_i, u_i) the eigenpairs of
    the symmetrised pencil, f~(t) = sum over lam_i > t of lam_i
    <u_i|sigma|u_i> predicts f (it is f for commuting states): the search
    probes the first cluster with f~ at or below 1 - eps, predicts again
    with f~ shifted by its error there, gallops from that cluster and
    bisects.  With fewer clusters it bisects from the start.  Either way it
    ends, one eigensolve per probe, on the bracket a binary search over the
    clusters ends on.  One probe just left of the bracketing breakpoint
    tells whether t* is that jump; if not, a secant that keeps the bracket
    (bisecting when it would leave it or stall) narrows it to the
    bisection's width.  The bisection's midpoints are then replayed: the
    bracket decides those outside it, and the few inside it are probed.

    Kernel fill order follows ascending eigenvalue index.  When the kernel
    has dimension > 1 (coinciding breakpoints, as for commuting states with
    repeated eigenvalue ratios), the optimum is not unique: every fill gives
    the same D_H, but which kernel vectors it takes depends on the basis
    the eigensolver returns.  The bisection replay pins the pick: Pi is
    eigensolved at the bisection's own end point.  The rate-0 channel code
    reports the output's mass outside supp Pi, which depends on the pick.

    Where 1 - eps is within TRACE_ROUNDING of Tr rho, f cannot resolve it:
    f is a sum rounded at a few ulp, and for pure rho it stays within that
    rounding of Tr rho over a range of t, so t* would follow the noise.
    There, eps = 0 included, the answer is the eps = 0 optimum: Pi is the
    projector onto supp(rho).
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    eps = float(eps)
    d = rho.total_dim
    svals, svecs, pos, r0 = _support_split(rho, sigma)
    r0 = max(r0, 0.0)
    # sigma-kernel weight is free: include the whole kernel projector
    ker_vecs = svecs[:, ~pos]
    pi = np.zeros((d, d), dtype=complex)
    pi += ker_vecs @ ker_vecs.conj().T

    if 1.0 - eps >= rho.trace() - TRACE_ROUNDING:
        # Tr(Pi rho) = 1 forces Pi >= supp(rho); optimum is exactly that projector
        rvals, rvecs = rho._eigh()
        supp = rvecs[:, rvals > SUPPORT_TOL]
        pi = supp @ supp.conj().T
        type2 = float(np.real(np.trace(pi @ sigma.matrix)))
        return max(type2, 0.0), pi

    target = 1.0 - eps - r0
    if target <= 1e-12:
        # enough free mass in the sigma-kernel: scale it to hit 1-eps exactly
        if r0 > 0:
            pi *= (1.0 - eps) / r0
        return 0.0, pi

    vs = svecs[:, pos]
    sv = svals[pos]
    rho_c = vs.conj().T @ rho.matrix @ vs       # compressed to supp(sigma)
    rho_c = (rho_c + rho_c.conj().T) / 2
    n = len(sv)
    diag = np.diag_indices(n)

    def probe_at(t):
        """(eigenvalues, eigenvectors, <v|sigma_c|v>, f(t)) of rho_c - t sigma_c."""
        shifted = rho_c.copy()
        shifted[diag] -= t * sv
        vals, vecs = np.linalg.eigh(shifted)
        sig_w = (vecs.real ** 2 + vecs.imag ** 2).T @ sv
        sel = vals > 1e-10 * (1.0 + t)
        # <v|rho_c|v> = val + t <v|sigma_c|v>
        return vals, vecs, sig_w, float(np.sum(vals[sel] + t * sig_w[sel]))

    # f(t) = 0 from t_top on: the top of sigma^{-1/2} rho sigma^{-1/2}, widened
    inv_half = 1.0 / np.sqrt(sv)
    rel = (rho_c * inv_half[None, :]) * inv_half[:, None]
    t_top = float(np.linalg.eigvalsh(rel)[-1]) * (1 + 1e-9) + 1e-12
    # f jumps where an eigenvalue of rho_c - t sigma_c crosses the kernel
    # tolerance 1e-10 (1 + t): at the generalized eigenvalues of
    # (rho_c - 1e-10, sigma_c + 1e-10), clustered within 5e-13 relative
    inv_half = 1.0 / np.sqrt(sv + 1e-10)
    rel = ((rho_c - 1e-10 * np.eye(n)) * inv_half[None, :]) * inv_half[:, None]
    full = np.linalg.eigvalsh(rel)
    # with nothing of rho_c above the tolerance, f = 0 for all t > 0: t* = 0
    lam = full[full > 0] if full[-1] > 0 else np.zeros(1)
    gap = np.diff(lam) > 0.5e-12 * np.maximum(1.0, lam[1:])
    last = np.append(gap, True)
    starts, ends = lam[np.append(True, gap)], lam[last]
    delta = 0.25e-12 * np.maximum(1.0, ends)
    if len(ends) < 16:
        # a binary search takes at most 4 probes here, and a prediction one
        # eigensolve and then about 3
        k, stride = (len(ends) - 1) // 2, 0
    else:
        # f~ just right of each cluster, and the first cluster at or below
        # the target (the last one is: f~ is 0 there).  The breakpoints stay
        # eigvalsh's, a few ulp from eigh's, so the probe points, and t and
        # Pi with them, are a binary search's
        u = np.linalg.eigh(rel)[1][:, full > 0]
        weight = lam * ((u.real ** 2 + u.imag ** 2).T @ sv)
        after = np.append(np.cumsum(weight[::-1])[::-1][1:], 0.0)[last]
        k, stride = int(np.searchsorted(-after, -target)), None

    # the first cluster whose right side meets the target: the bracket of a
    # binary search over the clusters, probed on both sides, keeps
    # f(t_lo) > target >= f(t_hi)
    t_lo, g_lo = 0.0, float(np.real(np.trace(rho_c))) - target
    t_hi, g_hi, t_next = t_top, -target, None
    lo, hi = -1, len(ends)
    side = None
    while hi - lo > 1:
        t = ends[k] + delta[k]
        g = probe_at(t)[-1] - target
        if g <= 0:
            hi, t_hi, g_hi = k, t, g
            # a probe here closes the bracket if t* is this jump
            t_next = starts[k] - delta[k]
        else:
            lo, t_lo, g_lo = k, t, g
        if stride is None:      # first cluster with f~ + (f - f~)(k) <= target
            k, stride = int(np.searchsorted(-after, g - after[k])), 1
        else:
            side = g <= 0 if side is None else side
            if stride and side == (g <= 0):
                k, stride = (k - stride if side else k + stride), 2 * stride
            else:
                k, stride = (lo + hi) // 2, 0
        k = min(max(k, lo + 1), hi - 1)

    # safeguarded secant inside the bracket, down to the bisection's width
    prev, cur = (t_lo, g_lo), (t_hi, g_hi)
    step_old = step = t_hi - t_lo
    while t_hi - t_lo >= 1e-12 * max(1.0, t_hi):
        if t_next is not None:
            t, t_next = t_next, None
        else:
            t = 0.5 * (t_lo + t_hi)
            if cur[1] != prev[1]:
                sec = cur[0] - cur[1] * (cur[0] - prev[0]) / (cur[1] - prev[1])
                if t_lo <= sec <= t_hi and abs(sec - cur[0]) <= 0.5 * step_old:
                    t = sec
            step_old, step = step, abs(t - cur[0])
            prev = cur
        tol = 0.4e-12 * max(1.0, t_hi)
        t = min(max(t, t_lo + tol), t_hi - tol)
        g = probe_at(t)[-1] - target
        if g <= 0:
            t_hi = t
        else:
            t_lo = t
        cur = (t, g)

    # replay the bisection on [0, t_top]: the bracket decides the midpoints
    # outside it and a probe those inside, so t is the bisection's end point
    # and a kernel of dimension > 1 is split in the same eigenbasis
    a, b, best = 0.0, t_top, None
    while b - a >= 1e-12 * max(1.0, b):
        mid = (a + b) / 2
        if t_lo < mid < t_hi:
            probe = probe_at(mid)
            below = probe[-1] <= target
            if below:
                best = (mid, probe)
        else:
            below = mid >= t_hi
        if below:
            b = mid
        else:
            a = mid
    t = b
    vals, vecs, sig_w, taken = best[1] if best and best[0] == t else probe_at(t)
    ktol = 1e-10 * (1.0 + t)
    weights = (vals > ktol).astype(float)
    type2 = float(np.sum(sig_w[vals > ktol]))
    deficit = target - taken
    if deficit > 0:
        for idx in np.flatnonzero(np.abs(vals) <= ktol):   # ascending index
            v = vecs[:, idx]
            rw = float(np.real(v.conj() @ rho_c @ v))
            if rw <= 1e-15:
                continue
            weights[idx] = min(1.0, deficit / rw)
            type2 += weights[idx] * sig_w[idx]
            deficit -= weights[idx] * rw
            if deficit <= 1e-14:
                break
    pi_c = (vecs * weights) @ vecs.conj().T
    pi += vs @ pi_c @ vs.conj().T
    return max(type2, 0.0), pi


def _dh_value(type2):
    """D_H as -log2 of the optimal type-II weight; infinite at <= 1e-300."""
    if type2 <= 1e-300:
        return EntropyValue.infinite()
    return EntropyValue(float(-np.log2(type2)))


def dh_eps(rho, sigma, eps):
    """Hypothesis-testing relative entropy at type-I error eps (exact optimum)."""
    type2, _ = _threshold_test(rho, sigma, eps)
    return _dh_value(type2)


def _hermitian_basis(d):
    """Orthonormal real basis of d x d Hermitian matrices under Tr(AB), (d*d, d, d).

    The d diagonal units first, then for each i < j (row-major) the real
    symmetric and the imaginary antisymmetric unit.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    idx = np.arange(d)
    basis[idx, idx, idx] = 1.0
    rows, cols = np.triu_indices(d, 1)
    k = d + 2 * np.arange(len(rows))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[k, rows, cols] = basis[k, cols, rows] = inv_sqrt2
    basis[k + 1, rows, cols] = 1j * inv_sqrt2
    basis[k + 1, cols, rows] = -1j * inv_sqrt2
    return basis


def _slack(xb, rho_mat):
    """I_A (x) X_B - rho: a copy of -rho with X_B added to its d_A diagonal
    blocks, equal entry by entry to the difference of the dense product."""
    d_b = len(xb)
    s = -rho_mat
    for a in range(0, len(s), d_b):
        s[a:a + d_b, a:a + d_b] += xb
    return s


def _hmin_sdp(rho_mat, d_a, d_b):
    """Solve min Tr(X_B) s.t. I_A (x) X_B >= rho via a log-barrier Newton method.

    Returns (optimal trace, X_B).  The barrier parameter follows a x5 schedule
    (gap shrinks x0.2 per outer step) from an interior multiple-of-identity
    start; the duality gap at exit is (d_a*d_b)/t <= 1e-9.  X_B is expanded
    in the Hermitian basis B_k, S = I_A (x) X_B - rho.  A Newton step takes
    the gradient from Tr_A S^{-1} in one product, and the Hessian
    Re Tr(S^{-1}(I (x) B_k) S^{-1}(I (x) B_l)) from S^{-1} contracted with
    itself over A into a d_b^2 x d_b^2 matrix, then with the basis on both
    sides; no Python loop and no I_A (x) B_k is formed.  The barrier
    -log det S comes from the Cholesky factor that also certifies S > 0.
    """
    d = d_a * d_b
    basis = _hermitian_basis(d_b)
    m = len(basis)
    flat = basis.reshape(m, d_b * d_b)
    tr_vec = np.real(np.trace(basis, axis1=1, axis2=2))

    def slack(x):
        return _slack(np.tensordot(x, basis, axes=1), rho_mat)

    def log_det(s):
        """log det S from its Cholesky factor; None unless S > 0."""
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return None
        return 2.0 * float(np.sum(np.log(np.real(np.diagonal(chol)))))

    lam_max = float(np.linalg.eigvalsh(rho_mat)[-1])
    x = np.zeros(m)
    x[:d_b] = lam_max * 1.001 + 1e-9   # strictly interior identity start
    t = 1.0
    ld = None

    while d / t > 1e-9:
        for _ in range(100):
            s = slack(x)
            if ld is None:
                ld = log_det(s)
            s_inv = np.linalg.inv(s)
            s_inv = (s_inv + s_inv.conj().T) / 2
            blocks = s_inv.reshape(d_a, d_b, d_a, d_b)
            # Tr_A of S^{-1}
            g_mat = np.trace(blocks, axis1=0, axis2=2)
            grad = t * tr_vec - np.real(flat @ g_mat.T.reshape(-1))
            # Re Tr(S^-1 (I x B_k) S^-1 (I x B_l)) = Re vec(B_k) K vec(B_l),
            # K[(j,k),(l,i)] = sum_pq S^-1[(p,i),(q,j)] S^-1[(q,k),(p,l)]
            kern = (blocks.transpose(1, 3, 0, 2).reshape(d_b * d_b, d_a * d_a)
                    @ blocks.transpose(2, 0, 1, 3).reshape(d_a * d_a, d_b * d_b))
            kern = kern.reshape((d_b,) * 4).transpose(1, 2, 3, 0)
            hess = np.real(flat @ kern.reshape(d_b * d_b, d_b * d_b) @ flat.T)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = float(-grad @ step)
            if decrement < 0:
                step = -grad
                decrement = float(grad @ grad)
            alpha = 1.0
            f0 = np.inf if ld is None else t * float(tr_vec @ x) - ld
            ld = None
            while alpha > 1e-12:
                x_new = x + alpha * step
                ld_new = log_det(slack(x_new))
                if ld_new is not None and t * float(tr_vec @ x_new) - ld_new \
                        <= f0 - 0.25 * alpha * decrement + 1e-12:
                    ld = ld_new
                    break
                alpha *= 0.5
            x = x + alpha * step
            if decrement / 2 < 1e-11:
                break
        t *= 5.0
    xb = np.tensordot(x, basis, axes=1)
    return float(np.real(np.trace(xb))), xb


def _partitioned(rho, partition):
    """(rho with registers A then B, A labels, B labels); A, B must cover rho."""
    a_labels, b_labels = list(partition[0]), list(partition[1])
    if sorted(a_labels + b_labels) != sorted(rho.system.labels):
        raise ValueError("partition does not cover the system")
    return permute_registers(rho, a_labels + b_labels), a_labels, b_labels


def hmin(rho, partition):
    """Conditional min-entropy H_min(A|B) via the defining SDP.

    ``partition`` is (A labels, B labels); together they must cover the system.
    """
    ordered, a_labels, _ = _partitioned(rho, partition)
    d_a = int(np.prod(ordered.system.dims[:len(a_labels)]))
    d_b = ordered.system.total_dim // d_a
    opt, _ = _hmin_sdp(ordered.matrix, d_a, d_b)
    return EntropyValue(float(-np.log2(max(opt, 1e-300))))


def imax(rho, partition):
    """Max-information I_max(A:B) = D_max(rho_AB || rho_A (x) rho_B)."""
    ordered, a_labels, b_labels = _partitioned(rho, partition)
    rho_a = partial_trace(ordered, b_labels)
    rho_b = partial_trace(ordered, a_labels)
    return dmax(ordered, tensor(rho_a, rho_b))


def check_mixture_identity(states, weights, theta):
    """Residual of D(sum_i p_i rho_i || theta) = sum_i p_i (D(rho_i||theta) - D(rho_i||rho)).

    Returns the absolute difference; inf if any term has a support violation.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < -1e-12):
        raise ValueError("weights must form a probability vector")
    mix_mat = sum(p * s.matrix for p, s in zip(weights, states))
    mix = DensityOperator(states[0].system, mix_mat, validate=False)
    lhs = relative_entropy(mix, theta)
    rhs = 0.0
    for p, s in zip(weights, states):
        if p <= 0:
            continue
        d_theta = relative_entropy(s, theta)
        d_mix = relative_entropy(s, mix)
        if not (d_theta.finite and d_mix.finite):
            return float("inf")
        rhs += p * (d_theta.value - d_mix.value)
    return abs(lhs.value - rhs)


def transpose_unitary(unitary, dim):
    """Transpose method: U^T, for which (U (x) I)|Phi> = (I (x) U^T)|Phi>
    on the maximally entangled |Phi>; refuses a U that is not unitary."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix")
    if float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))) > 1e-9:
        raise ValueError("input is not unitary within tolerance")
    return u.T.copy()
