"""Analysis utilities: downtime extraction, model fitting, timelines.

Turns trace records and phase reports into the paper's reported
quantities.  The package re-exports nothing, so importing one module
loads only what that module needs; import from the defining module:

* :mod:`repro.analysis.downtime` — Figure 6 downtime intervals and
  summaries from trace records;
* :mod:`repro.analysis.downtime_model` — the §3.2 downtime algebra;
* :mod:`repro.analysis.fitting` — the §5.6 fitted linear models;
* :mod:`repro.analysis.timeline` — Figure 7 throughput timelines;
* :mod:`repro.analysis.report` — paper-vs-measured comparison tables;
* :mod:`repro.analysis.charts` — text bar charts and line plots;
* :mod:`repro.analysis.export` — JSON and CSV result files;
* :mod:`repro.analysis.obs` — span queries, the reboot critical path,
  and the Perfetto and Prometheus exporters.

Only :mod:`~repro.analysis.fitting` and :mod:`~repro.analysis.timeline`
need numpy.
"""
