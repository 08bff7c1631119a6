"""Analysis utilities: downtime extraction, model fitting, timelines.

Turns trace records and phase reports into the paper's reported
quantities: Figure 6 downtimes, §5.6 fitted linear models, §3.2 downtime
algebra, Figure 7 throughput timelines, §5.3 availability.
"""

from repro.analysis.downtime import (
    DowntimeInterval,
    DowntimeSummary,
    downtime_by_domain,
    extract_downtimes,
    reboot_downtime_summary,
)
from repro.analysis.charts import bar_chart, line_plot
from repro.analysis.downtime_model import DowntimeModel, paper_model
from repro.analysis.export import (
    result_to_json,
    rows_to_csv,
    write_result,
)
from repro.analysis.fitting import LinearFit, fit_constant, fit_line
from repro.analysis.obs import (
    CriticalPath,
    CriticalPathEntry,
    capture_simulators,
    parse_prometheus,
    perfetto_events,
    perfetto_json,
    perfetto_trace,
    prometheus_snapshot,
    reboot_critical_path,
    reconcile,
    render_prometheus,
    span_records,
    write_perfetto,
)
from repro.analysis.report import (
    ComparisonRow,
    all_within_tolerance,
    render_comparison,
    render_table,
)
from repro.analysis.timeline import (
    AnnotatedTimeline,
    bucketize,
    mean_rate,
    sum_series,
    zero_intervals,
)

__all__ = [
    "AnnotatedTimeline",
    "bar_chart",
    "line_plot",
    "ComparisonRow",
    "CriticalPath",
    "CriticalPathEntry",
    "DowntimeInterval",
    "DowntimeModel",
    "DowntimeSummary",
    "LinearFit",
    "all_within_tolerance",
    "bucketize",
    "capture_simulators",
    "downtime_by_domain",
    "extract_downtimes",
    "fit_constant",
    "fit_line",
    "mean_rate",
    "paper_model",
    "parse_prometheus",
    "perfetto_events",
    "perfetto_json",
    "perfetto_trace",
    "prometheus_snapshot",
    "reboot_critical_path",
    "reboot_downtime_summary",
    "reconcile",
    "render_comparison",
    "render_prometheus",
    "render_table",
    "result_to_json",
    "rows_to_csv",
    "span_records",
    "sum_series",
    "write_perfetto",
    "write_result",
    "zero_intervals",
]
