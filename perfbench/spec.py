"""Metric definitions: name -> (unit, better, bound).

``bound`` is the share of the baseline median by which a metric may worsen
before a comparison calls it a regression. The end-to-end metrics below are
the ones ``BENCHMARK.json`` declares; every workload reports them. The
workload-specific metrics apply to some workloads only and are reported
beside them in the printed table and the result files.
"""

END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# work_per_s is cell_steps_per_s on the DG workloads and solves_per_s on
# riemann_batch, so those share its bound; the other times carry the same
# machine noise. rho_l1 and fail_frac are deterministic for a given code and
# seed, so any increase is a change of behaviour.
WORKLOAD_SPECIFIC = {
    "cell_steps_per_s": ("1/s", "higher", 0.25),
    "rho_l1": ("1", "lower", 0.0),
    "solves_per_s": ("1/s", "higher", 0.25),
    "solve_us_p50": ("us", "lower", 0.25),
    "solve_us_p99": ("us", "lower", 0.25),
    "solve_samples": ("count", "higher", None),
    "ref_cells_per_s": ("1/s", "higher", 0.25),
    "fail_frac": ("fraction", "lower", 0.0),
}

ALL_END_TO_END = {**END_TO_END, **WORKLOAD_SPECIFIC}
