"""Steady-model kernels: whole sweep grids in one flat pass.

A §9.4 sweep asks the closed-form curves of :mod:`repro.steady` the same
question at every point of a parameter grid, so the steady model
(:func:`repro.scenarios.fastpath.steady_grid`; ``steady_point`` is its
one-spec case) flattens the grid into struct-of-arrays host records and
evaluates them through the kernels here — the software α-curve, the
hardware card line, the M/M/1-style latency inflation, and the
per-direction M/D/1 uplink traversal of :mod:`repro.steady.fabric` — each
in one pure-python pass over its columns.

Byte-identity contract: every kernel reproduces its scalar counterpart's
expression *tree*, not just its formula, so a flattened grid returns the
same 64-bit doubles the scalar curves do.  Reductions stay out of the
kernels: the caller combines per host and sums per spec, in host order.
"""

from __future__ import annotations

from typing import List, Sequence


def have_numpy() -> bool:
    """Always False: the kernels have one pure-python path."""
    return False


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
    out = []
    for r, c, i, s, a, pw, pe, sub, add in zip(
        rate, capacity, idle_w, span_w, alpha, poly_w, poly_exp, sub_w, add_w,
    ):
        u = min(r, c) / c
        p = i + s * (u ** a) + pw * (u ** pe)
        out.append((p - sub) + add)
    return out


def software_latency(
    rate: Sequence[float],
    capacity: Sequence[float],
    base_latency_us: Sequence[float],
) -> List[float]:
    """``SteadyModel.latency_at``: the base median inflated M/M/1-style
    toward saturation, ``min(10·base, base/(1−ρ))`` at ``ρ = min(0.99, u)``."""
    out = []
    for r, c, base in zip(rate, capacity, base_latency_us):
        rho = min(0.99, min(r, c) / c)
        out.append(min(base * 10.0, base / (1.0 - rho)))
    return out


def hardware_power(
    rate: Sequence[float],
    capacity: Sequence[float],
    fixed_w: Sequence[float],
    dyn_max_w: Sequence[float],
) -> List[float]:
    """``HardwareCardModel.power_at``: host idle + card draw (the
    ``fixed_w`` operand, probed once per device kind) plus the
    utilization-scaled dynamic adder."""
    return [
        f + d * (min(r, c) / c)
        for r, c, f, d in zip(rate, capacity, fixed_w, dyn_max_w)
    ]


def served_pps(rate: Sequence[float], capacity: Sequence[float]) -> List[float]:
    """``SteadyModel.achieved_pps``: offered rate saturating at capacity."""
    return [min(r, c) for r, c in zip(rate, capacity)]


def crossing_us(
    load_pps: Sequence[float],
    latency_us: Sequence[float],
    serialization_us: Sequence[float],
) -> List[float]:
    """``FabricUplinkModel.crossing_us``: one uplink-direction traversal —
    propagation + serialization + the mean M/D/1 FIFO wait of
    :func:`repro.net.link.fifo_wait_us` at the direction's offered load."""
    out = []
    for load, lat, ser in zip(load_pps, latency_us, serialization_us):
        service_s = ser / 1e6
        rho = min(load * service_s, 0.999)
        wait = service_s * rho / (2.0 * (1.0 - rho)) * 1e6
        out.append(lat + ser + wait)
    return out


def throughput_factor(
    load_pps: Sequence[float], capacity_pps: Sequence[float]
) -> List[float]:
    """``FabricUplinkModel.throughput_factor``: the fluid cap — 1.0 below
    the direction's nominal-packet saturation rate, proportional above."""
    return [
        1.0 if load <= cap else cap / load
        for load, cap in zip(load_pps, capacity_pps)
    ]
