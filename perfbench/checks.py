"""Output checks against exact oracles, one list of (name, ok, detail) per report.

Every check is one attempted operation; a failed check is a failed one.
"""

from __future__ import annotations

import math

import numpy as np

RATES_MAX_Z = 4.0
RATES_MIN_SLOPE = 0.25
COMMUTING_MAX_ERROR = 1e-8
COALESCE_MARGIN = 0.02
KERNEL_MAX_DEFECT = 1e-12
# the whole-curve deviation is reported on this window of times, not gated
CURVE_WINDOW = (2.0, 10.0)


def cos_integral_second_moment(horizon: float, theta0: float, n: int = 1 << 16) -> float:
    """E[(int_0^T cos theta_s ds)^2] for theta_s = theta0 + s + pi N_s, N rate-1 Poisson.

    E[cos theta_s cos theta_u] = 1/2 [cos(u-s) + cos(u+s+2 theta0)] e^{-2(u-s)}
    for s < u.  The inner integral over u is closed form; the outer one over s
    is composite Simpson on n intervals.
    """
    s = np.linspace(0.0, horizon, n + 1)
    c = complex(-2.0, 1.0)
    inner = (np.exp(c * (horizon - s)) - 1.0) / c  # int_0^{T-s} e^{(i-2)d} dd
    f = np.real((1.0 + np.exp(2j * (s + theta0))) * inner)
    h = horizon / n
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


def absorption_probability(t: float, gap: float, circumference: float, variance_rate: float) -> float:
    """P(Brownian gap started at `gap` has hit 0 or `circumference` by t).

    Dirichlet eigenfunction series for variance variance_rate * t on (0, L).
    """
    survival = 0.0
    for k in range(1, 400, 2):
        lam = 0.5 * variance_rate * (k * math.pi / circumference) ** 2
        survival += (4.0 / (k * math.pi)) * math.sin(k * math.pi * gap / circumference) * math.exp(-lam * t)
    return 1.0 - survival


def check_rates(res: dict, cfg: dict) -> tuple[list, dict]:
    av = cfg["averaging"]
    theta0 = av["start"]["theta"]
    checks = []
    z_scores = []
    for eps, err, se in zip(res["eps_grid"], res["errors"], res["std_errors"]):
        oracle = eps * math.sqrt(cos_integral_second_moment(av["t"] / eps, theta0))
        z = (err - oracle) / se
        z_scores.append(z)
        checks.append((f"error-oracle eps={eps}", abs(z) <= RATES_MAX_Z, f"z={z:.3f} oracle={oracle:.6g}"))
    slope = res.get("slope")
    checks.append(("slope", slope is not None and slope >= RATES_MIN_SLOPE, f"slope={slope}"))
    n_viol = res["pathwise_bound_violations"]
    checks.append(("pathwise-violations", n_viol == 0, f"violations={n_viol}"))
    return checks, {"z_scores": z_scores, "max_abs_z": max(abs(z) for z in z_scores)}


def check_average(res: dict, cfg: dict) -> tuple[list, dict]:
    checks = [
        (f"commuting-error eps={eps}", err <= COMMUTING_MAX_ERROR, f"error={err:.3g}")
        for eps, err in zip(res["eps_grid"], res["errors"])
    ]
    return checks, {"max_error": max(res["errors"])}


def check_coalesce(res: dict, cfg: dict) -> tuple[list, dict]:
    co = cfg["coalesce"]
    n = co["replicas"]
    var_rate = 2.0 * res["sigma"] ** 2  # the gap of two independent points
    starts = co["starts"]
    same = [
        (i, j)
        for j in range(len(starts))
        for i in range(j)
        if (starts[i]["r"], starts[i]["z"]) == (starts[j]["r"], starts[j]["z"])
    ]
    i, j = same[0]
    gap = abs(math.remainder(starts[j]["theta"] - starts[i]["theta"], 2.0 * math.pi))

    def oracle(t):
        return absorption_probability(t, gap, 2.0 * math.pi, var_rate)

    checks = [
        ("cross-leaf-merges", res["cross_leaf_coalescences"] == 0, f"{res['cross_leaf_coalescences']}"),
    ]
    final, p_end = res["fraction_coalesced"][-1], oracle(res["horizon"])
    checks.append(("fraction-at-horizon", final >= p_end - COALESCE_MARGIN, f"{final:.4f} vs oracle {p_end:.4f}"))
    devs, gaps = [], []
    for t, frac in zip(res["curve_times"], res["fraction_coalesced"]):
        if CURVE_WINDOW[0] <= t <= CURVE_WINDOW[1]:
            p = oracle(t)
            gaps.append(frac - p)
            devs.append((frac - p) / math.sqrt(p * (1.0 - p) / n))
    return checks, {
        "curve_dev_mean": float(np.mean(gaps)),
        "curve_dev_se_mean": float(np.mean(devs)),
        "curve_dev_se_min": float(np.min(devs)),
        "curve_dev_se_max": float(np.max(devs)),
    }


def check_kernel(res: dict, cfg: dict) -> tuple[list, dict]:
    checks = [
        (f"{r['check']} t={r['t']:.6f}", r["defect"] <= KERNEL_MAX_DEFECT, f"defect={r['defect']:.3g}")
        for r in res["records"]
    ]
    return checks, {"max_defect": res["max_defect"], "records": len(res["records"])}


CHECKS = {
    "rates": check_rates,
    "average": check_average,
    "coalesce": check_coalesce,
    "kernel-check": check_kernel,
}
