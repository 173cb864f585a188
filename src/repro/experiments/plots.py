"""Optional matplotlib renderers for the transition figures.

Text rendering (``result.render()``) is the contract everywhere in this
package; these helpers additionally emit the Figure 6/7 timeline plots as
PNGs **when matplotlib happens to be importable**.  The import is guarded —
matplotlib is not a dependency, and nothing here may be imported at module
scope by code on the text path.
"""

from __future__ import annotations

import pathlib
from typing import Optional, Union

from ..errors import ConfigurationError

PathLike = Union[str, pathlib.Path]


def matplotlib_available() -> bool:
    """True when matplotlib can be imported (never raises)."""
    try:
        import matplotlib  # noqa: F401
    except Exception:
        return False
    return True


def _require_pyplot():
    try:
        import matplotlib

        matplotlib.use("Agg", force=False)  # headless: never require a display
        import matplotlib.pyplot as plt
    except Exception as exc:  # pragma: no cover - depends on environment
        raise ConfigurationError(
            "matplotlib is not importable; install it to render PNGs "
            "(text rendering via result.render() needs no extra packages)"
        ) from exc
    return plt


def save_sweep_png(result, path: PathLike, title: Optional[str] = None) -> pathlib.Path:
    """Plot a scenario sweep's tipping-point chart to ``path``.

    Accepts a :class:`~repro.scenarios.sweep.ScenarioSweepResult`: for each
    setting of the non-ramp axes it draws the software- and hardware-pinned
    ops/W curves along the ramp axis, with the crossover marked — the
    rack-scale §9.4 rendition of the paper's Figure 5 comparison.
    """
    plt = _require_pyplot()
    spec = result.spec
    axis = spec.resolved_tip_axis()
    other_params = [a.param for a in spec.axes if a.param != axis]

    groups = {}
    for pt in result.points:
        key = tuple(pt.params[p] for p in other_params)
        groups.setdefault(key, []).append(pt)
    tips = {
        tuple(tip.fixed[p] for p in other_params): tip
        for tip in result.tipping_points()
    }

    fig, ax = plt.subplots(figsize=(7.0, 4.5))
    colors = plt.rcParams["axes.prop_cycle"].by_key()["color"]
    for i, (key, pts) in enumerate(groups.items()):
        color = colors[i % len(colors)]
        label = (
            ", ".join(f"{p}={v}" for p, v in zip(other_params, key)) or "rack"
        )
        xs = [pt.params[axis] for pt in pts]
        ax.plot(
            xs,
            [pt.software.ops_per_watt for pt in pts],
            color=color,
            linestyle="--",
            label=f"{label} (SW)",
        )
        ax.plot(
            xs,
            [pt.hardware.ops_per_watt for pt in pts],
            color=color,
            linestyle="-",
            label=f"{label} (HW)",
        )
        if all(pt.ondemand is not None for pt in pts):
            ax.plot(
                xs,
                [pt.ondemand.ops_per_watt for pt in pts],
                color=color,
                linestyle="-.",
                linewidth=1.0,
                label=f"{label} (on demand)",
            )
        tip = tips.get(key)
        if tip is not None and tip.crossover is not None:
            ax.axvline(
                tip.crossover, color=color, linestyle=":", linewidth=1.0
            )
    ax.set_xlabel(axis)
    ax.set_ylabel("ops/W")
    ax.legend(fontsize="small")
    fig.suptitle(title or f"{spec.name}: software vs hardware ops/W")
    fig.tight_layout()

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    fig.savefig(out, dpi=120)
    plt.close(fig)
    return out


def save_transition_png(result, path: PathLike, title: Optional[str] = None) -> pathlib.Path:
    """Plot a Figure 6/7-shaped result (throughput/latency[/power] series
    plus shift markers) to ``path``.

    Accepts any object with ``throughput_series``, ``latency_series`` and
    ``shift_times_us`` attributes — :class:`Figure6Result`,
    :class:`Figure7Result` and :class:`~repro.scenarios.PlacementResult`
    all qualify; a ``power_series`` attribute adds the third panel.
    """
    plt = _require_pyplot()
    power_series = getattr(result, "power_series", None)
    n_panels = 3 if power_series else 2
    fig, axes = plt.subplots(
        n_panels, 1, sharex=True, figsize=(7.0, 2.2 * n_panels)
    )

    def seconds(series):
        xs = [t / 1e6 for t, _ in series]
        ys = [v for _, v in series]
        return xs, ys

    xs, ys = seconds(result.throughput_series)
    axes[0].plot(xs, [y / 1e3 for y in ys], color="tab:blue")
    axes[0].set_ylabel("throughput\n[kpps]")

    lat = [(t, v) for t, v in result.latency_series if v is not None]
    xs, ys = seconds(lat)
    axes[1].plot(xs, ys, color="tab:green")
    axes[1].set_ylabel("latency\n[µs]")

    if power_series:
        xs, ys = seconds(power_series)
        axes[2].plot(xs, ys, color="tab:orange")
        axes[2].set_ylabel("power\n[W]")

    for axis in axes:
        for shift in result.shift_times_us:
            axis.axvline(shift / 1e6, color="red", linestyle="--", linewidth=1.0)
    axes[-1].set_xlabel("time [s]")
    if title is None:
        title = "software ↔ hardware transition"
    fig.suptitle(title)
    fig.tight_layout()

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    fig.savefig(out, dpi=120)
    plt.close(fig)
    return out
