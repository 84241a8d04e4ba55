"""Independent oracle implementations used to pin expected values.

Everything here is deliberately written from the defining formulas
(loops, enumeration, quadrature, hand algebra) and never calls into
the package under test, so each check runs along two separate routes.
"""

import itertools
import math

import numpy as np


def scalar_power_mean(values, h, weights=None):
    """Power mean of positive scalars from its textbook definition."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights)
    if h == 0.0:
        return float(np.exp(np.sum(weights * np.log(values))))
    return float(np.sum(weights * values**h) ** (1.0 / h))


def commuting_power_mean(basis, eigenvalue_rows, h, weights=None):
    """Power mean of simultaneously diagonalizable SPD matrices:
    the scalar power mean applied eigenvalue-wise in the shared basis.

    ``eigenvalue_rows[i]`` holds the eigenvalues of matrix ``i`` in the
    column order of ``basis``.
    """
    rows = np.asarray(eigenvalue_rows, dtype=np.float64)
    means = np.array([
        scalar_power_mean(rows[:, j], h, weights)
        for j in range(rows.shape[1])
    ])
    return (basis * means[None, :]) @ basis.T


def brute_force_auc(scores, labels):
    """AUC by counting every positive/negative pair; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def enumerate_permutation_p(diffs):
    """Exact sign-flip p-value by literally enumerating every
    assignment with ``itertools.product``."""
    diffs = list(diffs)
    observed = sum(diffs) / len(diffs)
    count = 0
    total = 0
    for signs in itertools.product((1.0, -1.0), repeat=len(diffs)):
        total += 1
        stat = sum(s * d for s, d in zip(signs, diffs)) / len(diffs)
        if stat >= observed:
            count += 1
    return count / total


def signed_ranks(diffs):
    """Average ranks of the absolute non-zero differences."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    mags = np.abs(d)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(len(d))
    i = 0
    while i < len(d):
        j = i
        while j < len(d) and mags[order[j]] == mags[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return d, ranks


def wilcoxon_reference_p(diffs):
    """Signed-rank normal approximation coded from the formulas,
    using ``math.erfc`` for the tail probability."""
    d, ranks = signed_ranks(diffs)
    n = len(d)
    w_plus = float(ranks[d > 0].sum())
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    var -= float(sum(int(t) ** 3 - int(t) for t in counts)) / 48.0
    z = (w_plus - 0.5 - mu) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def signed_rank_mc_p(diffs, n_draws=1024, seed=20240901):
    """Monte-Carlo sign-flip estimate of the one-sided signed-rank
    p-value: flip signs of the ranked data and count statistics at
    least as large as the observed rank sum."""
    d, ranks = signed_ranks(diffs)
    w_obs = float(ranks[d > 0].sum())
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_draws):
        signs = rng.integers(0, 2, size=len(d))
        if float(ranks[signs == 1].sum()) >= w_obs:
            count += 1
    return count / n_draws


def normal_cdf_quadrature(x, panels=64, order=12):
    """Standard normal CDF by composite Gauss-Legendre quadrature of
    the density between 0 and ``|x|``; no library CDF involved."""
    if x == 0.0:
        return 0.5
    a, b = 0.0, abs(float(x))
    if b > 40.0:
        b = 40.0
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t = mid + half * nodes
        total += half * np.sum(weights * np.exp(-0.5 * t * t))
    integral = total / math.sqrt(2.0 * math.pi)
    return 0.5 + integral if x > 0 else 0.5 - integral


def irls_logistic(x, y01, penalty=1.0, max_iter=200, tol=1e-12):
    """L2-penalized logistic regression by iteratively reweighted
    least squares (the intercept is unpenalized)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y01, dtype=np.float64)
    n, k = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    beta = np.zeros(k + 1)
    ridge = penalty * np.eye(k + 1)
    ridge[k, k] = 0.0
    for _ in range(max_iter):
        z = xa @ beta
        p = 1.0 / (1.0 + np.exp(-z))
        w = p * (1.0 - p)
        grad = xa.T @ (p - y) + ridge @ beta
        hess = (xa * w[:, None]).T @ xa + ridge
        step = np.linalg.solve(hess, grad)
        beta = beta - step
        if np.max(np.abs(step)) < tol:
            break
    return beta[:k], beta[k]


def lbfgs_newton_logistic(x, y01, penalty=1.0):
    """L2-penalized logistic regression (unpenalized intercept) by
    scipy's L-BFGS-B, polished by undamped Newton steps to gradient
    norm 1e-8; returns ``(weights, intercept)``."""
    import scipy.optimize
    import scipy.special

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y01, dtype=np.float64)
    n, k = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    ridge = penalty * np.eye(k + 1)
    ridge[k, k] = 0.0

    def objective(beta):
        z = xa @ beta
        loss = np.logaddexp(0.0, -(2.0 * y - 1.0) * z).sum()
        resid = scipy.special.expit(z) - y
        return (loss + 0.5 * beta @ ridge @ beta,
                xa.T @ resid + ridge @ beta)

    beta = scipy.optimize.minimize(
        objective, np.zeros(k + 1), method="L-BFGS-B", jac=True,
        options={"maxiter": 5000, "ftol": 0.0, "gtol": 1e-12}).x
    for _ in range(100):
        grad = objective(beta)[1]
        if np.linalg.norm(grad) <= 1e-8:
            break
        p = scipy.special.expit(xa @ beta)
        hess = (xa * (p * (1.0 - p))[:, None]).T @ xa + ridge
        beta = beta - np.linalg.solve(hess, grad)
    return beta[:k], beta[k]


def oas_reference(data):
    """Shrunk covariance from the closed-form recipe, written with
    explicit loops and no vectorized shortcuts."""
    data = np.asarray(data, dtype=np.float64)
    p, n = data.shape
    centered = np.empty_like(data)
    for i in range(p):
        centered[i] = data[i] - data[i].mean()
    s = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            s[i, j] = float(np.dot(centered[i], centered[j])) / n
    tr_s = sum(s[i, i] for i in range(p))
    tr_s2 = sum(s[i, j] * s[i, j] for i in range(p) for j in range(p))
    num = (1.0 - 2.0 / p) * tr_s2 + tr_s**2
    den = (n + 1.0 - 2.0 / p) * (tr_s2 - tr_s**2 / p)
    rho = 1.0 if den <= 0 else min(1.0, max(0.0, num / den))
    mu = tr_s / p
    out = (1.0 - rho) * s
    for i in range(p):
        out[i, i] += rho * mu
    return out, rho


def lda_reference_binary(x, y, ridge_rel=1e-9):
    """Two-class linear discriminant from the textbook formulas using
    an explicit adjugate/cofactor inverse (2x2 features) or
    ``np.linalg.inv`` otherwise; returns discriminant difference
    ``g_1(x) - g_0(x)`` evaluator."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    classes = np.unique(y)
    mus = [x[y == c].mean(axis=0) for c in classes]
    n, k = x.shape
    pooled = np.zeros((k, k))
    for c, mu in zip(classes, mus):
        for row in x[y == c]:
            d = row - mu
            pooled += np.outer(d, d)
    pooled /= n - len(classes)
    pooled += ridge_rel * np.trace(pooled) / k * np.eye(k)
    if k == 2:
        det = pooled[0, 0] * pooled[1, 1] - pooled[0, 1] * pooled[1, 0]
        inv = np.array([[pooled[1, 1], -pooled[0, 1]],
                        [-pooled[1, 0], pooled[0, 0]]]) / det
    else:
        inv = np.linalg.inv(pooled)
    priors = [(y == c).mean() for c in classes]

    def score(features):
        f = np.asarray(features, dtype=np.float64)
        gs = []
        for mu, prior in zip(mus, priors):
            gs.append(f @ inv @ mu - 0.5 * mu @ inv @ mu + math.log(prior))
        return gs[1] - gs[0]

    return score


def ajd_criterion(b, mats):
    """Pham's joint-diagonalization criterion of a demixing matrix ``b``:
    ``(1/n) sum_i [log det diag(B C_i B^T) - log det (B C_i B^T)]``,
    zero exactly when every transformed matrix is diagonal."""
    t = b @ np.asarray(mats, dtype=np.float64) @ b.T
    diag = np.diagonal(t, axis1=1, axis2=2)
    return float(np.mean(np.sum(np.log(diag), axis=1)
                         - np.linalg.slogdet(t)[1]))


def round_robin(d):
    """Rounds of disjoint index pairs ``(i, j)``, ``i > j``, covering each
    pair once: the circle method on ``m = d + d % 2`` slots (slot ``d`` a
    dummy when ``d`` is odd), round ``r`` pairing slot ``m - 1`` with
    ``r`` and ``r + k`` with ``r - k`` modulo ``m - 1``."""
    m = d + d % 2
    rounds = []
    for r in range(m - 1):
        slots = [(m - 1, r)] + [((r + k) % (m - 1), (r - k) % (m - 1))
                                for k in range(1, m // 2)]
        rounds.append([(max(p), min(p)) for p in slots if max(p) < d])
    return rounds


def pham_pair_step(c, b, i, j):
    """Pham's (2001) 2x2 step on the pair ``(i, j)`` of the stack ``c``
    and demixing matrix ``b``, weights equal, applied in place; returns
    the pair's decrement of :func:`ajd_criterion`."""
    g_ij = np.mean(c[:, i, j] / c[:, i, i])
    g_ji = np.mean(c[:, i, j] / c[:, j, j])
    w_ij = np.mean(c[:, j, j] / c[:, i, i])
    w_ji = np.mean(c[:, i, i] / c[:, j, j])
    w_tilde = math.sqrt(w_ji / w_ij)
    w_prod = math.sqrt(w_ij * w_ji)
    t1 = (w_tilde * g_ij + g_ji) / (w_prod + 1.0)
    t2 = (w_tilde * g_ij - g_ji) / max(w_prod - 1.0, 1e-12)
    h12 = t1 + t2
    h21 = (t1 - t2) / w_tilde
    tmp = 1.0 + math.sqrt(max(1.0 - h12 * h21, 0.0))
    pair = [i, j]
    t = np.array([[1.0, -h12 / tmp], [-h21 / tmp, 1.0]])
    c[:, pair, :] = np.einsum("xy,kyl->kxl", t, c[:, pair, :])
    c[:, :, pair] = np.einsum("kly,xy->klx", c[:, :, pair], t)
    b[pair, :] = t @ b[pair, :]
    return (g_ij * h12 + g_ji * h21) / 2.0


def pham_sweeps(mats, tol=1e-7, max_sweeps=150):
    """Pham's approximate joint diagonalization of any number of SPD
    matrices by sweeps of pair steps in :func:`round_robin` order, up to
    the first sweep whose summed decrement is at most ``tol``; returns
    the demixing matrix before the first sweep (the identity) and after
    each."""
    c = np.array(mats, dtype=np.float64)
    b = np.eye(c.shape[-1])
    iterates = [b.copy()]
    for _ in range(max_sweeps):
        decrement = sum(pham_pair_step(c, b, i, j)
                        for pairs in round_robin(c.shape[-1])
                        for i, j in pairs)
        iterates.append(b.copy())
        if abs(decrement) <= tol:
            break
    return iterates


def random_spd(dim, rng, log_spread=1.0):
    """Random SPD matrix: random orthogonal basis, log-uniform spectrum
    of total spread ``log_spread`` (condition number e**log_spread)."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = np.exp(rng.uniform(-log_spread / 2.0, log_spread / 2.0, dim))
    return (q * w[None, :]) @ q.T


def random_gl(dim, rng, max_cond=100.0):
    """Random invertible matrix with condition number below the cap."""
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    smax = math.sqrt(max_cond)
    s = np.exp(rng.uniform(-math.log(smax), math.log(smax), dim))
    return (u * s[None, :]) @ v.T


def spd_cloud(center, sigma, n, rng):
    """Log-normal SPD cloud around a center, coded directly."""
    dim = center.shape[0]
    w, v = np.linalg.eigh(center)
    root = (v * np.sqrt(w)[None, :]) @ v.T
    out = []
    for _ in range(n):
        s = rng.standard_normal((dim, dim)) * sigma
        s = 0.5 * (s + s.T)
        ew, ev = np.linalg.eigh(s)
        out.append(root @ (ev * np.exp(ew)[None, :]) @ ev.T @ root)
    return np.stack(out)
