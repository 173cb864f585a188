"""Vectorized steady-model kernels: whole sweep grids in one array pass.

A §9.4 sweep asks the closed-form curves of :mod:`repro.steady` the same
question at every point of a parameter grid, so the steady model
(:func:`repro.scenarios.fastpath.steady_grid`; ``steady_point`` is its
one-spec case) flattens the grid into struct-of-arrays host records and
evaluates them through the kernels here — the software α-curve, the
hardware card line, the M/M/1-style latency inflation, and the
four-traversal M/D/1 uplink adder of :mod:`repro.steady.fabric` — each
in one numpy expression.

Byte-identity contract: every kernel reproduces its scalar counterpart's
expression *tree*, not just its formula, so the array path returns the
same 64-bit doubles the scalar curves do.  Two consequences:

* reductions stay out of the kernels (the caller sums per spec, in host
  order, in python — numpy's pairwise summation rounds differently);
* ``u ** alpha`` is computed with scalar pow per element: numpy's SIMD
  array pow is *not* bit-identical to C ``pow`` (observed on numpy 2.x),
  while exponent 1.0 short-circuits to the base, which IEEE 754 makes
  exact in both worlds.

Every kernel also carries a pure-python branch (no numpy importable, or
``REPRO_PURE_PYTHON=1`` at import) that is the scalar loop itself; it is
the production path of every numpy-less install, which loses only speed.
"""

from __future__ import annotations

import os
from typing import List, Sequence

try:  # pragma: no cover - exercised via both dispatch branches
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

if os.environ.get("REPRO_PURE_PYTHON"):
    _np = None


def have_numpy() -> bool:
    """Is the vectorized path active?  (False under REPRO_PURE_PYTHON=1.)"""
    return _np is not None


def _asarray(values: Sequence[float]):
    return _np.asarray(values, dtype=_np.float64)


def _pow_elementwise(base, exponent) -> "object":
    """``base ** exponent`` with scalar-pow semantics (numpy path).

    numpy's vectorized pow and C ``pow`` disagree in the last ulp for a
    few percent of inputs, which would break the byte-identity contract;
    exponent 1.0 returns the base exactly (IEEE 754 ``pow(x, 1) == x``),
    and everything else goes through python's float pow per element.
    """
    exps = exponent.tolist()
    if all(e == 1.0 for e in exps):
        return base.copy()
    return _np.fromiter(
        (b ** e for b, e in zip(base.tolist(), exps)),
        dtype=_np.float64,
        count=len(exps),
    )


def software_power(
    rate: Sequence[float],
    capacity: Sequence[float],
    idle_w: Sequence[float],
    span_w: Sequence[float],
    alpha: Sequence[float],
    poly_w: Sequence[float],
    poly_exp: Sequence[float],
    sub_w: Sequence[float],
    add_w: Sequence[float],
) -> List[float]:
    """The software α-curve per entry, with the power-save NIC swap.

    Mirrors ``SoftwareCurveModel.power_at`` — ``idle + span·u^α +
    poly·u^poly_exp`` at ``u = min(rate, cap)/cap`` — followed by the
    standby adjustment ``(p − sub_w) + add_w`` (both zero for a plain
    host, NIC idle out / card standby in for a power-save offload host).
    """
    if _np is None:
        out = []
        for r, c, i, s, a, pw, pe, sub, add in zip(
            rate, capacity, idle_w, span_w, alpha, poly_w, poly_exp,
            sub_w, add_w,
        ):
            u = min(r, c) / c
            p = i + s * (u ** a) + pw * (u ** pe)
            out.append((p - sub) + add)
        return out
    r, c = _asarray(rate), _asarray(capacity)
    u = _np.minimum(r, c) / c
    p = _asarray(idle_w) + _asarray(span_w) * _pow_elementwise(u, _asarray(alpha))
    pw = _asarray(poly_w)
    if _np.any(pw != 0.0):
        p = p + pw * _pow_elementwise(u, _asarray(poly_exp))
    else:
        # poly_w·u^e is +0.0 everywhere (u finite, weights all zero), and
        # p + 0.0 == p for the strictly positive p here — skip the pow
        p = p + 0.0
    return ((p - _asarray(sub_w)) + _asarray(add_w)).tolist()


def software_latency(
    rate: Sequence[float],
    capacity: Sequence[float],
    base_latency_us: Sequence[float],
) -> List[float]:
    """``SteadyModel.latency_at``: the base median inflated M/M/1-style
    toward saturation, ``min(10·base, base/(1−ρ))`` at ``ρ = min(0.99, u)``."""
    if _np is None:
        out = []
        for r, c, base in zip(rate, capacity, base_latency_us):
            rho = min(0.99, min(r, c) / c)
            out.append(min(base * 10.0, base / (1.0 - rho)))
        return out
    r, c = _asarray(rate), _asarray(capacity)
    base = _asarray(base_latency_us)
    rho = _np.minimum(0.99, _np.minimum(r, c) / c)
    return _np.minimum(base * 10.0, base / (1.0 - rho)).tolist()


def hardware_power(
    rate: Sequence[float],
    capacity: Sequence[float],
    fixed_w: Sequence[float],
    dyn_max_w: Sequence[float],
) -> List[float]:
    """``HardwareCardModel.power_at``: host idle + card draw (the
    ``fixed_w`` operand, probed once per device kind) plus the
    utilization-scaled dynamic adder."""
    if _np is None:
        return [
            f + d * (min(r, c) / c)
            for r, c, f, d in zip(rate, capacity, fixed_w, dyn_max_w)
        ]
    r, c = _asarray(rate), _asarray(capacity)
    u = _np.minimum(r, c) / c
    return (_asarray(fixed_w) + _asarray(dyn_max_w) * u).tolist()


def served_pps(rate: Sequence[float], capacity: Sequence[float]) -> List[float]:
    """``SteadyModel.achieved_pps``: offered rate saturating at capacity."""
    if _np is None:
        return [min(r, c) for r, c in zip(rate, capacity)]
    return _np.minimum(_asarray(rate), _asarray(capacity)).tolist()


def crossing_us(
    load_pps: Sequence[float],
    latency_us: Sequence[float],
    serialization_us: Sequence[float],
) -> List[float]:
    """``FabricUplinkModel.crossing_us``: one uplink-direction traversal —
    propagation + serialization + the mean M/D/1 FIFO wait of
    :func:`repro.net.link.fifo_wait_us` at the direction's offered load."""
    if _np is None:
        out = []
        for load, lat, ser in zip(load_pps, latency_us, serialization_us):
            service_s = ser / 1e6
            rho = min(load * service_s, 0.999)
            wait = service_s * rho / (2.0 * (1.0 - rho)) * 1e6
            out.append(lat + ser + wait)
        return out
    load = _asarray(load_pps)
    ser = _asarray(serialization_us)
    service_s = ser / 1e6
    rho = _np.minimum(load * service_s, 0.999)
    wait = service_s * rho / (2.0 * (1.0 - rho)) * 1e6
    return (_asarray(latency_us) + ser + wait).tolist()


def throughput_factor(
    load_pps: Sequence[float], capacity_pps: Sequence[float]
) -> List[float]:
    """``FabricUplinkModel.throughput_factor``: the fluid cap — 1.0 below
    the direction's nominal-packet saturation rate, proportional above."""
    if _np is None:
        return [
            1.0 if load <= cap else cap / load
            for load, cap in zip(load_pps, capacity_pps)
        ]
    load, cap = _asarray(load_pps), _asarray(capacity_pps)
    out = _np.ones(len(load), dtype=_np.float64)
    over = load > cap
    if over.any():
        out[over] = cap[over] / load[over]
    return out.tolist()
