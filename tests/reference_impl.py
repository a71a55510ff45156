"""Slow, obviously-correct reference implementations used as test oracles.

Everything here is written with plain Python loops and itertools so the
vectorized package code can be checked against an independently derived
computation. From the package this module takes only the public
constellation mapper (whose own tests are table-driven) and the naive
standard-BP oracle naive_sbp_beta, which lives in mimobp.selfcheck so that
an installed `mimobp selftest` can run it; it shares no code with the engine.
"""
import itertools
import math

import numpy as np

from mimobp.channel import modulate
from mimobp.selfcheck import _naive_sbp_beta as naive_sbp_beta  # noqa: F401


def naive_modulate(bits, m):
    """Blockwise constellation mapping with explicit loops."""
    bits = list(bits)
    out = []
    for start in range(0, len(bits), m):
        block = bits[start : start + m]
        if m == 1:
            out.append(complex(block[0]))
        else:
            out.append((block[0] + 1j * block[1]) / math.sqrt(2.0))
    return np.asarray(out, dtype=np.complex128)


def naive_bit_gains(h_row, m):
    """Per-bit effective complex gain seen at one receive antenna."""
    gains = []
    for k in range(len(h_row)):
        if m == 1:
            gains.append(h_row[k])
        else:
            gains.append(h_row[k] / math.sqrt(2.0))
            gains.append(1j * h_row[k] / math.sqrt(2.0))
    return np.asarray(gains, dtype=np.complex128)


def cascade_prior_oracle(h, y, sigma2, m, clamp=30.0, solve=False):
    """The MMSE cascade's clamped per-bit prior (B, Nbits): 2 Re(s_hat)/K_kk
    per bit at M = 1 and sqrt(2) times that from the real and imaginary
    parts at M = 2. The MMSE estimates take the engine's order: the Gram
    matrix by matmul, one inverse K and s_hat = K (H^H y). solve=True takes
    the order the engine used before, an einsum Gram matrix with one solve
    for s_hat and one inverse for K."""
    b, n_rx, n_tx = h.shape
    if solve:
        a = np.einsum("bja,bjc->bac", h.conj(), h) + sigma2 * np.eye(n_tx)
        hty = np.einsum("bjk,bj->bk", h.conj(), y)
        s_hat = np.linalg.solve(a, hty[:, :, None])[:, :, 0]
        mse = np.diagonal(np.linalg.inv(a), axis1=1, axis2=2).real
    else:
        hh = np.conj(h).transpose(0, 2, 1)
        k = np.linalg.inv(np.matmul(hh, h) + sigma2 * np.eye(n_tx))
        s_hat = np.matmul(k, np.matmul(hh, y[:, :, None]))[:, :, 0]
        mse = np.diagonal(k, axis1=1, axis2=2).real
    if m == 1:
        prior = 2.0 * s_hat.real / mse
    else:
        prior = np.empty((b, m * n_tx))
        prior[:, 0::2] = 2.0 * np.sqrt(2.0) * s_hat.real / mse
        prior[:, 1::2] = 2.0 * np.sqrt(2.0) * s_hat.imag / mse
    return np.clip(prior, -clamp, clamp)


def config_table_oracle(m, n_tx):
    """Every joint configuration in the engine's order: (bits (C, M*Nt) int8
    +-1, symbols (C, Nt) complex). x_t = +1 exactly when bit t of the index
    c is 0, bit 0 lowest; itertools.product varies its last entry fastest,
    so each of its tuples is read backwards."""
    combos = itertools.product((1, -1), repeat=m * n_tx)
    bits = np.array([combo[::-1] for combo in combos], dtype=np.int8)
    return bits, modulate(bits.astype(np.float64), m)


def prior_sums_oracle(terms):
    """Sums of terms (..., n) over the bits t clear in each index c (x_t = +1),
    shape (..., 2^n), in the engine's order.

    The even bits and the odd bits are each folded from +0 in descending t,
    one add per clear bit and a skip per set bit, and the two folds are
    added. Every config is folded on its own; there is no table to share
    partial sums.
    """
    n = terms.shape[-1]
    cc = np.arange(1 << n, dtype=np.int64)
    folds = []
    for bits in (range(0, n, 2)[::-1], range(1, n, 2)[::-1]):
        acc = np.zeros(terms.shape[:-1] + (1 << n,))
        for t in bits:
            acc = np.where((cc >> t) & 1 == 0, acc + terms[..., t:t + 1], acc)
        folds.append(acc)
    return folds[1] + folds[0]


def batched_sbp_mask_oracle(h, y, sigma2, m, iterations, prior=None, clamp=30.0,
                            einsum=False):
    """Batched standard BP with one boolean-mask gather per bit and sign.

    The trial-major formulation the package's SBP kernel replaced, kept with
    the same arithmetic (prior_sums_oracle's order, subtraction order, clamp)
    so that the soft outputs must match it bit for bit. h is (B, Nr, Nt), y
    (B, Nr). A per-bit prior (B, Nbits), if given, seeds alpha and is added
    in every alpha update ahead of the extrinsic sum, as the MMSE cascade
    does. einsum=True takes the priors' earlier order, np.einsum's, kept as
    a 1e-9 check. Returns the (B, Nbits) soft output after each iteration.
    """
    b, n_rx, n_tx = h.shape
    n_bits = m * n_tx
    bits, symbols = config_table_oracle(m, n_tx)
    xpos = (bits > 0).astype(np.float64)
    pos_mask = bits.T > 0

    hs = np.einsum("bjk,ck->bjc", h, symbols)
    d = -np.abs(y[:, :, None] - hs) ** 2 / (2.0 * sigma2)
    alpha = (np.zeros((b, n_bits, n_rx)) if prior is None
             else np.repeat(prior[:, :, None], n_rx, axis=2))
    beta = np.zeros((b, n_rx, n_bits))
    softs = []
    for _ in range(iterations):
        if einsum:
            p = np.einsum("ct,btj->bjc", xpos, alpha)
        else:
            p = prior_sums_oracle(alpha.transpose(0, 2, 1))
        t = d + p
        for i in range(n_bits):
            mask = pos_mask[i]
            beta[:, :, i] = (
                t[:, :, mask].max(axis=2) - alpha[:, i, :] - t[:, :, ~mask].max(axis=2)
            )
        total = beta.sum(axis=1)
        ext = total[:, :, None] - beta.transpose(0, 2, 1)
        if prior is not None:
            ext = prior[:, :, None] + ext
        alpha = np.clip(ext, -clamp, clamp)
        softs.append(beta.sum(axis=1))
    return softs


def lump_sums_oracle(terms, sets):
    """Sums of terms (B, Nr, Nbits) over the bits each message (j, i) lumps,
    t != i and t not in sets[:, j, i], one bit i at a time.

    In the engine's order: the factor's total, t ascending from t = 0,
    minus the sum over the kept bits (i and the edge set), ascending from
    the lowest kept bit.
    """
    b, n_rx, n_bits = terms.shape
    total = terms[:, :, 0]
    for t in range(1, n_bits):
        total = total + terms[:, :, t]
    out = np.empty_like(terms)
    for i in range(n_bits):
        kept = np.sort(np.concatenate([np.full((b, n_rx, 1), i), sets[:, :, i, :]], axis=-1))
        picked = np.take_along_axis(terms, kept, axis=-1)
        kept_sum = picked[:, :, 0]
        for r in range(1, kept.shape[-1]):
            kept_sum = kept_sum + picked[:, :, r]
        out[:, :, i] = total - kept_sum
    return out


def batched_rbp_trial_major_oracle(h, y, sigma2, m, rd1, rd2, iterations,
                                   cascaded=False, clamp=30.0, arithmetic="sums"):
    """Batched relaxed BP (or its MMSE cascade) with the hypothesis axis last.

    The trial-major formulation of the package's relaxed kernel, with the
    same arithmetic (bit gains, per-bit edge selection, lump sums, score
    terms, prior sums, operation order, clamp and cascade prior), so that
    the soft outputs must match it bit for bit. The lumped power is clamped
    at 0. With c = y - u, half = 2 sigma2_z and interference I_h, beta is
    (2/sigma2_z) Re(conj(g_i) c) + max_h(S_h - (Q_h + W_h)) - max_h(S_h -
    (Q_h - W_h)): S_h sums e_r = alpha_r + (2/sigma2_z) Re(conj(c) g_r) over
    the edges with x_r = +1 in prior_sums_oracle's order, Q_h = |I_h|^2/half,
    W_h = Re(conj(I_h) g_i) 2/half. Two older arithmetics of the engine,
    both with np.einsum's prior sums, stay as tolerance checks:
    arithmetic="a_pm_c" scores A +- C per hypothesis, with b = c - I_h,
    A = P - |b|^2/half and C = Re(conj(b) g_i) 2/half, and "einsum" adds the
    dense lump-mask einsums, P - |b -+ g_i|^2/half scores and the
    solve-based cascade prior. Without edges all three are the matched
    filter. h is (B, Nr, Nt), y (B, Nr). Returns the (B, Nbits) soft output
    after each iteration.
    """
    einsum = arithmetic == "einsum"
    b, n_rx, n_tx = h.shape
    n_bits = m * n_tx
    if m == 1:
        gains = h
    else:
        gains = np.repeat(h, m, axis=-1) * (np.tile(np.array([1.0, 1.0j]), n_tx) / np.sqrt(m))

    rd = rd1 * m + rd2 * (m - 1)
    order = np.argsort(-np.abs(h), axis=-1, kind="stable")
    sets = np.empty((b, n_rx, n_bits, rd), dtype=np.intp)
    offs = np.arange(m, dtype=np.intp)
    for i in range(n_bits):
        k0 = i // m
        others = order[order != k0].reshape(b, n_rx, n_tx - 1)
        chosen = others[:, :, :rd1]
        bits = (chosen[:, :, :, None] * m + offs).reshape(b, n_rx, rd1 * m)
        if rd2 == 1 and m > 1:
            own = [k0 * m + c for c in range(m) if k0 * m + c != i]
            pad = np.broadcast_to(np.asarray(own, dtype=np.intp), (b, n_rx, len(own)))
            bits = np.concatenate([bits, pad], axis=-1)
        sets[:, :, i, :] = bits
    if einsum:
        mask = np.ones((b, n_rx, n_bits, n_bits))
        mask[..., np.arange(n_bits), np.arange(n_bits)] = 0.0
        np.put_along_axis(mask, sets, 0.0, axis=-1)
    power = np.abs(gains) ** 2

    if cascaded:
        prior = cascade_prior_oracle(h, y, sigma2, m, clamp, solve=einsum)
        power = power * (1.0 - np.tanh(prior / 2.0) ** 2)[:, None, :]
    else:
        prior = np.zeros((b, n_bits))
    if einsum:
        sigma2_z = np.einsum("bjit,bjt->bji", mask, power) + sigma2
    else:
        sigma2_z = np.maximum(lump_sums_oracle(power, sets), 0.0) + sigma2
    alpha = np.repeat(prior[:, :, None], n_rx, axis=2)

    if rd:
        cc = np.arange(1 << rd, dtype=np.int64)[:, None]
        xh = (1 - 2 * ((cc >> np.arange(rd, dtype=np.int64)[None, :]) & 1)).astype(np.float64)
        xh_pos = (xh > 0).astype(np.float64)
        bb = np.arange(b)[:, None, None, None]
        jj = np.arange(n_rx)[None, :, None, None]
        g_sel = gains[bb, jj, sets]
        interf = np.einsum("bjir,hr->bjih", g_sel, xh)
        own = gains[:, :, :, None]
        half = 2.0 * sigma2_z[:, :, :, None]
        g2 = own * (2.0 / half)
        scale = (2.0 / sigma2_z)[:, :, :, None]
        g_re, g_im = g_sel.real * scale, g_sel.imag * scale
        q = (interf.real * interf.real + interf.imag * interf.imag) / half
        w = interf.real * g2.real + interf.imag * g2.imag
        q_plus, q_minus = q + w, q - w

    softs = []
    for _ in range(iterations):
        ge = gains * np.tanh(alpha / 2.0).transpose(0, 2, 1)
        u = np.einsum("bjit,bjt->bji", mask, ge) if einsum else lump_sums_oracle(ge, sets)
        c = y[:, :, None] - u
        beta = (2.0 / sigma2_z) * (gains.conj() * c).real   # the matched filter
        if rd and arithmetic == "sums":
            a_sel = alpha.transpose(0, 2, 1)[bb, jj, sets]
            e = a_sel + (c.real[..., None] * g_re + c.imag[..., None] * g_im)
            s = prior_sums_oracle(e)
            beta = beta + (s - q_plus).max(axis=3)
            beta = beta - (s - q_minus).max(axis=3)
        elif rd:
            a_sel = alpha.transpose(0, 2, 1)[bb, jj, sets]
            priors = np.einsum("bjir,hr->bjih", a_sel, xh_pos)
            base = c[:, :, :, None] - interf
            if einsum:
                score_pos = -np.abs(base - own) ** 2 / half + priors
                score_neg = -np.abs(base + own) ** 2 / half + priors
            else:
                a = priors - (base.real * base.real + base.imag * base.imag) / half
                c_term = base.real * g2.real + base.imag * g2.imag
                score_pos, score_neg = a + c_term, a - c_term
            beta = score_pos.max(axis=3) - score_neg.max(axis=3)
        total = beta.sum(axis=1)
        ext = total[:, :, None] - beta.transpose(0, 2, 1)
        if cascaded:
            ext = prior[:, :, None] + ext
        alpha = np.clip(ext, -clamp, clamp)
        softs.append(beta.sum(axis=1))
    return softs


def naive_edge_set(h_row, i, rd1, rd2, m=1):
    """Explicit-edge bit indices for message (j, i), 0-based.

    The rd1 interferer symbols with the largest |h| (ties toward the smaller
    symbol index, matching a stable descending sort), expanded to bits, plus
    the other bits of bit i's own symbol when rd2 = 1.
    """
    n_tx = len(h_row)
    k0 = i // m
    others = [k for k in range(n_tx) if k != k0]
    others.sort(key=lambda k: (-abs(h_row[k]), k))
    bits = [k * m + b for k in others[:rd1] for b in range(m)]
    if rd2 == 1:
        bits.extend(b for b in range(k0 * m, k0 * m + m) if b != i)
    return bits


def naive_lump_mean(alpha_col, psi, h_row, i, m=1):
    """Soft interference mean of the bits outside psi and i."""
    gains = naive_bit_gains(h_row, m)
    total = 0.0 + 0.0j
    for t in range(len(gains)):
        if t == i or t in psi:
            continue
        total += gains[t] * math.tanh(alpha_col[t] / 2.0)
    return total


def naive_lump_variance(psi, h_row, i, sigma2, m=1, bit_var=None):
    """Residual interference-plus-noise power with per-bit prior variances."""
    gains = naive_bit_gains(h_row, m)
    total = sigma2
    for t in range(len(gains)):
        if t == i or t in psi:
            continue
        v = 1.0 if bit_var is None else bit_var[t]
        total += abs(gains[t]) ** 2 * v
    return total


def naive_rbp_beta(alpha, h, y, sigma2, rd1, rd2, m=1, bit_var=None):
    """Relaxed factor-to-bit messages by direct hypothesis enumeration.

    For every message (j, i) the bits in psi are enumerated jointly with
    x_i; everything else is replaced by the Gaussian lump with the naive
    mean and variance above.
    """
    n_rx, n_tx = h.shape
    n_bits = m * n_tx
    beta = np.zeros((n_rx, n_bits))
    for j in range(n_rx):
        gains = naive_bit_gains(h[j], m)
        for i in range(n_bits):
            psi = naive_edge_set(h[j], i, rd1, rd2, m)
            u = naive_lump_mean(alpha[:, j], psi, h[j], i, m)
            s2z = naive_lump_variance(psi, h[j], i, sigma2, m, bit_var)
            best = {1: -np.inf, -1: -np.inf}
            for xi in (1, -1):
                for combo in itertools.product((1, -1), repeat=len(psi)):
                    resid = y[j] - gains[i] * xi - u
                    prior = 0.0
                    for t, xt in zip(psi, combo):
                        resid -= gains[t] * xt
                        if xt == 1:
                            prior += alpha[t, j]
                    cand = -abs(resid) ** 2 / (2.0 * s2z) + prior
                    if cand > best[xi]:
                        best[xi] = cand
            beta[j, i] = best[1] - best[-1]
    return beta


def naive_mmse(h, y, sigma2):
    """One-shot linear estimate and its error covariance via plain inverses."""
    a = h.conj().T @ h + sigma2 * np.eye(h.shape[1])
    k = np.linalg.inv(a)
    return k @ h.conj().T @ y, k


def naive_wilson(errors, total, z=1.959963984540054):
    """Wilson score interval written straight from the formula."""
    if total == 0:
        return 0.0, 1.0
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def naive_ami(soft, bits, clamp=30.0):
    """Scalar-loop mutual-information estimate with the +-30 exponent clamp."""
    vals = []
    for l, b in zip(soft, bits):
        arg = min(clamp, max(-clamp, -b * l))
        vals.append(1.0 - math.log2(1.0 + math.exp(arg)))
    return sum(vals) / len(vals)
