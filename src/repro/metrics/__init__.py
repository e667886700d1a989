"""Measurement: the paper's evaluation metrics (section 4, "Metrics").

* **job wait time** — submission to start of first scheduling attempt,
* **scheduler busyness** — fraction of time spent making decisions,
  reported as median-of-daily-values with median absolute deviation,
* **conflict fraction** — mean conflicts per successfully scheduled job,
* **abandoned jobs** — jobs dropped at the 1,000-attempt retry limit.
"""

from repro.metrics.ascii_chart import line_chart
from repro.metrics.collector import MetricsCollector, SchedulerMetrics
from repro.metrics.results import RunSummary
from repro.metrics.stats import mad, median, percentile

__all__ = [
    "MetricsCollector",
    "SchedulerMetrics",
    "RunSummary",
    "mad",
    "median",
    "percentile",
    "line_chart",
]
