"""Experiment harness: one runner per paper table/figure.

Fast analytic experiments (Figures 3–5, §5–§8, §9.3–§10) live in
:mod:`repro.experiments.figures`; the two DES transition experiments
(Figures 6 and 7) live in :mod:`repro.experiments.transitions`.  Every
runner returns a result object with the raw series plus a ``render()``
method that prints the rows/series the paper reports.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".reporting": ("format_table", "bucket_rate_series"),
        ".sweep": ("SweepPoint", "sweep_model", "sweep_models"),
        ".": ("figures",),
        ".plots": (
            "matplotlib_available",
            "save_sweep_png",
            "save_transition_png",
        ),
        ".transitions": (
            "run_figure6",
            "run_figure7",
            "Figure6Result",
            "Figure7Result",
        ),
    },
)

__all__ = [
    "format_table",
    "bucket_rate_series",
    "SweepPoint",
    "sweep_model",
    "sweep_models",
    "figures",
    "matplotlib_available",
    "save_sweep_png",
    "save_transition_png",
    "run_figure6",
    "run_figure7",
    "Figure6Result",
    "Figure7Result",
]
