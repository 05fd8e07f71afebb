"""Benchmark harness utilities (timing, sweeps, canonical grids, figures)."""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "Measurement": "harness",
        "SweepResult": "harness",
        "format_table": "harness",
        "run_support_sweep": "harness",
        "time_call": "harness",
        "render_line_chart": "plotting",
        "sweep_to_svg": "plotting",
        "load_benchmark_json": "report",
        "render_groups": "report",
        "GRIDS": "workloads",
        "ExperimentGrid": "workloads",
        "grid": "workloads",
        "scaled_db": "workloads",
    },
)

__all__ = [
    "Measurement",
    "SweepResult",
    "format_table",
    "run_support_sweep",
    "time_call",
    "render_line_chart",
    "load_benchmark_json",
    "render_groups",
    "sweep_to_svg",
    "GRIDS",
    "ExperimentGrid",
    "grid",
    "scaled_db",
]
