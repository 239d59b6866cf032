"""Independent oracle implementations used to pin expected values.

Every oracle here deliberately avoids the package's own code paths:
eigendecompositions run through mpmath's 40-digit Hermitian solver or 2x2
closed forms, quadratures through the raw double integral, and classical
constructions through explicit enumeration. The one exception is the
sequential measured-divergence search, which takes its starting bases from
qdiv's eigh, since their phases are part of its result.
"""

import functools
import itertools
import math

import mpmath as mp
import numpy as np

from qdiv.linalg import eigh

mp.mp.dps = 40


def _to_mp(m: np.ndarray) -> mp.matrix:
    m = np.asarray(m, dtype=complex)
    return mp.matrix([[mp.mpc(z) for z in row] for row in m])


def _eigh_mp(m: np.ndarray):
    return mp.eighe(_to_mp(m))


def _funm_mp(m: np.ndarray, fn) -> mp.matrix:
    w, v = _eigh_mp(m)
    return v * mp.diag([fn(w[i]) for i in range(len(w))]) * v.H


def _trace(m: mp.matrix):
    return sum(m[i, i] for i in range(m.rows))


def eig2_closed_form(h: np.ndarray) -> tuple[float, float]:
    """2x2 Hermitian eigenvalues from the characteristic polynomial."""
    a, d = h[0, 0].real, h[1, 1].real
    b = h[0, 1]
    disc = math.sqrt((a - d) ** 2 + 4 * abs(b) ** 2)
    return (a + d - disc) / 2, (a + d + disc) / 2


def umegaki_mp(rho: np.ndarray, sigma: np.ndarray) -> float:
    val = _trace(_to_mp(rho) * (_funm_mp(rho, mp.log) - _funm_mp(sigma, mp.log)))
    return float(mp.re(val))


def rld_mp(rho: np.ndarray, sigma: np.ndarray) -> float:
    sr = _funm_mp(rho, mp.sqrt)
    sinv = _funm_mp(sigma, lambda x: 1 / x)
    inner = sr * sinv * sr
    w, v = mp.eighe(inner)
    ln = v * mp.diag([mp.log(w[i]) for i in range(len(w))]) * v.H
    return float(mp.re(_trace(_to_mp(rho) * ln)))


def dmax_mp(rho: np.ndarray, sigma: np.ndarray) -> float:
    isq = _funm_mp(sigma, lambda x: 1 / mp.sqrt(x))
    w, _ = mp.eighe(isq * _to_mp(rho) * isq)
    return float(mp.log(max(w)))


def fidelity_logdiv_mp(rho: np.ndarray, sigma: np.ndarray) -> float:
    prod = _funm_mp(rho, mp.sqrt) * _funm_mp(sigma, mp.sqrt)
    w, _ = mp.eighe(prod.H * prod)
    return float(mp.log(sum(mp.sqrt(max(wi, mp.mpf(0))) for wi in w)))


def kl_direct(p, q) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            if qi <= 0:
                return math.inf
            total += pi * (math.log(pi) - math.log(qi))
    return total


def petz_superoperator(f, rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """Metric through the d^2 x d^2 modular superoperator, inverted
    numerically (row-major vectorization)."""
    d = rho.shape[0]
    modular = np.kron(rho, np.linalg.inv(rho).T)
    w, u = np.linalg.eigh(modular)
    fm = (u * np.asarray(f(w), dtype=float)) @ u.conj().T
    k = np.kron(np.eye(d), rho.T) @ fm
    return complex(x.conj().reshape(-1) @ np.linalg.solve(k, y.reshape(-1)))


def double_integral_divergence(f, rho: np.ndarray, sigma: np.ndarray, nodes: int = 40) -> float:
    """Raw two-variable quadrature of the metric over the triangle s <= t."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    diff = rho - sigma

    def g(s):
        lam, v = np.linalg.eigh(s * rho + (1 - s) * sigma)
        xt = v.conj().T @ diff @ v
        ratio = lam[:, None] / lam[None, :]
        kern = 1.0 / (lam[None, :] * np.asarray(f(ratio), dtype=float))
        return float(np.sum(np.conj(xt) * xt * kern).real)

    total = 0.0
    for t, wt in zip(0.5 * (xs + 1), 0.5 * ws):
        for s, wsi in zip(0.5 * t * (xs + 1), 0.5 * t * ws):
            total += wt * wsi * g(s)
    return total


def bkm_finite_difference(rho: np.ndarray, x: np.ndarray, h: float = 1e-6) -> float:
    """BKM metric as tr X d/dt ln(rho + t X) by central differences."""

    def logm(m):
        w, v = np.linalg.eigh(m)
        return (v * np.log(w)) @ v.conj().T

    deriv = (logm(rho + h * x) - logm(rho - h * x)) / (2 * h)
    return float(np.trace(x @ deriv).real)


def classical_np_region(p: np.ndarray, q: np.ndarray, n: int, a: float):
    """Outcome strings of the product experiment cut by the likelihood test
    p^n <= e^{na} q^n (ties included), with the acceptance and type-2 mass."""
    outs = list(itertools.product(range(p.size), repeat=n))
    pn = np.array([float(np.prod([p[i] for i in o])) for o in outs])
    qn = np.array([float(np.prod([q[i] for i in o])) for o in outs])
    diff = pn - math.exp(n * a) * qn
    tol = 1e-12 * max(float(np.abs(diff).max()), 1e-300)
    region = diff <= tol
    return region, float(pn[region].sum()), float(qn[~region].sum())


def classical_smooth(p: np.ndarray, q: np.ndarray, n: int, a: float):
    """Diagonal truncation: the outcomes with p^n > e^{na} q^n dropped and
    the rest of p^n renormalized."""
    outs = list(itertools.product(range(p.size), repeat=n))
    pn = np.array([float(np.prod([p[i] for i in o])) for o in outs])
    qn = np.array([float(np.prod([q[i] for i in o])) for o in outs])
    kept = np.where(pn <= math.exp(n * a) * qn, pn, 0.0)
    return kept / kept.sum(), pn, qn


def pinched_smoothing(rho: np.ndarray, sigma: np.ndarray, n: int, a: float):
    """Hayashi's pinched smoothing of rho^{x n} at rate a on the dense krons.
    The type classes of sigma's eigenbasis are enumerated with
    itertools.product: the product eigenvectors with the same count of each
    one-copy eigenvector. In each class, of weight c in sigma^{x n} (0 below
    the 1e-12 relative support cut of sigma's eigenvalues), the eigenvectors
    of rho^{x n} compressed to the class with eigenvalue at most e^{na} c
    are kept. Returns (state, T, epsilon, certificate): P rho_n P / T with
    T = tr rho_n P, the SVD trace distance to rho_n, and
    ln lambda_max(c^{-1/2} state c^{-1/2}) / n in the product eigenbasis,
    on the classes of nonzero weight."""
    q, v = np.linalg.eigh(sigma)
    q = np.where(q > 1e-12 * q.max(), q, 0.0)
    rho_n = functools.reduce(np.kron, [rho] * n)
    classes: dict[tuple, list] = {}
    for labels in itertools.product(range(q.size), repeat=n):
        vec = functools.reduce(np.kron, [v[:, i] for i in labels])
        classes.setdefault(tuple(sorted(labels)), []).append(vec)
    weight = {labels: math.prod(q[i] for i in labels) for labels in classes}
    proj = np.zeros_like(rho_n)
    for labels, vecs in classes.items():
        if weight[labels] == 0.0:
            continue
        basis = np.array(vecs).T
        w, u = np.linalg.eigh(basis.conj().T @ rho_n @ basis)
        cols = basis @ u[:, w <= math.exp(n * a) * weight[labels]]
        proj += cols @ cols.conj().T
    t = float(np.trace(proj @ rho_n).real)
    state = proj @ rho_n @ proj / t
    epsilon = float(np.linalg.svd(state - rho_n, compute_uv=False).sum())
    basis = np.array([vec for vecs in classes.values() for vec in vecs]).T
    weights = np.array([weight[labels] for labels, vecs in classes.items() for _ in vecs])
    sup = weights > 0.0
    root = 1.0 / np.sqrt(weights[sup])
    s = (basis.conj().T @ state @ basis)[np.ix_(sup, sup)]
    cert = math.log(float(np.linalg.eigvalsh(s * root[:, None] * root)[-1])) / n
    return state, t, epsilon, cert


def classical_conversion(p0, q0, p, q, n: int, c: float):
    """Measure-and-prepare conversion for diagonal quadruples by enumeration:
    binary likelihood test on (p0, q0)^n, then the binary classical reverse
    test targeting (p^n, q^n)."""
    d_tgt = kl_direct(p, q)
    a = d_tgt + c
    _, accept_sigma_region_p, type2 = classical_np_region(p0, q0, n, a)
    accept = 1.0 - accept_sigma_region_p
    if type2 <= 0:
        return None
    rate = -math.log(type2) / n

    outs = list(itertools.product(range(len(p)), repeat=n))
    pn = np.array([float(np.prod([p[i] for i in o])) for o in outs])
    qn = np.array([float(np.prod([q[i] for i in o])) for o in outs])
    lim = math.exp(n * rate) * qn
    capped = np.minimum(pn, lim)
    tr = capped.sum()
    room = lim - capped
    if tr < 1.0 and room.sum() > 1e-14:
        capped = capped + (1.0 - tr) / room.sum() * room
    tilde = capped / capped.sum()
    phi1 = (qn - type2 * tilde) / (1 - type2)
    out_p = accept * tilde + (1 - accept) * phi1
    out_q = type2 * tilde + (1 - type2) * phi1
    return {
        "rate": rate,
        "accept": accept,
        "rho_err": float(np.abs(out_p - pn).sum()),
        "sigma_err": float(np.abs(out_q - qn).sum()),
        "out_p": out_p,
        "out_q": out_q,
        "target_p": pn,
        "target_q": qn,
    }


def dense_reverse_test(rho_n: np.ndarray, sigma_n: np.ndarray, rate: float, n: int):
    """The binary reverse test on dense powers, capped in the sigma-weighted
    frame: the eigenvalues of M^-1/2 rho_n M^-1/2, with M = e^{n rate} sigma_n,
    are clipped to [0, 1], the trace deficit is refilled from the room
    M - capped, and the result is normalized; rho_n itself when nothing
    reaches the cap. The complement (sigma_n - q0 state)/(1 - q0) at
    q0 = e^{-n rate} completes the preparation. Returns the state, the
    complement, the certificate dmax(state, sigma_n)/n, ||state - rho_n||_1
    and ||q0 state + (1 - q0) complement - sigma_n||_1, by numpy alone."""
    scale = math.exp(n * rate)
    ws, vs = np.linalg.eigh(sigma_n)
    keep = ws > 1e-12 * ws.max()
    ws, vs = scale * ws[keep], vs[:, keep]
    msq = (vs * np.sqrt(ws)) @ vs.conj().T
    misq = (vs / np.sqrt(ws)) @ vs.conj().T
    c = misq @ rho_n @ misq
    w, v = np.linalg.eigh((c + c.conj().T) / 2)
    state = rho_n
    if w.max() > 1.0:
        rhat = msq @ ((v * np.clip(w, 0.0, 1.0)) @ v.conj().T) @ msq
        room = scale * sigma_n - rhat
        tr, tr_room = float(np.trace(rhat).real), float(np.trace(room).real)
        if tr < 1.0 and tr_room > 1e-14:
            rhat = rhat + ((1.0 - tr) / tr_room) * room
        state = rhat / float(np.trace(rhat).real)
    inner = misq @ state @ misq
    cert = rate + math.log(float(np.linalg.eigvalsh((inner + inner.conj().T) / 2).max())) / n
    q0 = 1 / scale
    complement = (sigma_n - q0 * state) / (1 - q0)
    prepared = q0 * state + (1 - q0) * complement
    return {
        "state": state,
        "complement": complement,
        "certificate": cert,
        "rho_error": float(np.linalg.svd(state - rho_n, compute_uv=False).sum()),
        "sigma_error": float(np.linalg.svd(prepared - sigma_n, compute_uv=False).sum()),
    }


def convolution_sym_powers(v: np.ndarray, n: int) -> list[np.ndarray]:
    """The qubit Schur-Weyl blocks of v^{(x)n} for a 2x2 matrix v by
    polynomial convolution, one block at a time: for k = 0..n//2,
    Sym^{n-2k}(v) in the orthonormal basis sqrt(C(m,i)) x^{m-i} y^i, whose
    column j holds the y-coefficients of (v00 x + v10 y)^{m-j}
    (v01 x + v11 y)^j."""
    x, y = [np.ones(1, dtype=complex)], [np.ones(1, dtype=complex)]
    for _ in range(n):
        x.append(np.convolve(x[-1], v[:, 0]))
        y.append(np.convolve(y[-1], v[:, 1]))
    blocks = []
    for k in range(n // 2 + 1):
        m = n - 2 * k
        coeffs = np.column_stack([np.convolve(x[m - j], y[j]) for j in range(m + 1)])
        root_binom = np.sqrt([float(math.comb(m, i)) for i in range(m + 1)])
        blocks.append(coeffs * root_binom / root_binom[:, None])
    return blocks


def projective_kl(v, r, s) -> float:
    """KL of r's outcome weights from s's in the basis that the columns of v
    form, one basis at a time; +inf where r weighs an outcome that s does
    not."""
    p = np.sum(v.conj() * (r @ v), axis=0).real
    q = np.sum(v.conj() * (s @ v), axis=0).real
    p, q = np.where(p > 1e-300, p, 0.0), np.maximum(q, 0.0)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def sequential_measured_search(rho, sigma, budget: int = 500, seed: int = 0):
    """The seeded random search that measured_div_lower used before its
    deterministic ascent, one basis at a time: the deterministic starts (the
    eigenbases of rho, sigma, rho - sigma and rho + sqrt(2) sigma),
    Haar-random starts up to max(budget // 4, 8) evaluations, then one local
    rotation exp(i step H) of the best basis per evaluation, the step halving
    after 12 rejections in a row. Returns (best KL, best basis) or raises
    ValueError when nothing scores finite. The reference that the ascent
    must never fall below."""

    def random_unitary(rng):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        return q * (diag / np.abs(diag))

    rng = np.random.default_rng(seed)
    d = rho.dim
    r, s = rho.matrix, sigma.matrix
    starts = [rho.eigen.eigenvectors, sigma.eigen.eigenvectors,
              eigh(r - s).eigenvectors, eigh(r + np.sqrt(2.0) * s).eigenvectors]
    evals = 0
    best_v, best = None, -math.inf
    for v in starts:
        if evals >= budget:
            break
        val = projective_kl(v, r, s)
        evals += 1
        if val > best and math.isfinite(val):
            best, best_v = val, v
    while evals < max(budget // 4, 8) and evals < budget:
        v = random_unitary(rng)
        val = projective_kl(v, r, s)
        evals += 1
        if val > best and math.isfinite(val):
            best, best_v = val, v
    if best_v is None:
        raise ValueError(f"no basis of the {evals} evaluated gave a finite KL")

    step, stale = 0.3, 0
    while evals < budget:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w, u = np.linalg.eigh((g + g.conj().T) / 2)
        cand = ((u * np.exp(1j * step * w)) @ u.conj().T) @ best_v
        val = projective_kl(cand, r, s)
        evals += 1
        if val > best and math.isfinite(val):
            best, best_v = val, cand
            stale = 0
        else:
            stale += 1
            if stale >= 12:
                step = max(step * 0.5, 1e-4)
                stale = 0
    return best, best_v
