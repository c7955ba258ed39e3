"""Per-layer metrics of the traced run: which public functions are wrapped,
how their spans reduce to layer numbers, and which end-to-end metric each
layer number should move on which workload.

A metric whose layer does not run on a workload reads 0 there (no spans, no
base count). A metric that needs a function the package no longer has is
left out of the output and listed as absent.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# (span name, attribute, bindings as attribute paths of the package)
# Each binding is a lookup site that callers use: the defining module for
# global or ``module.fn`` lookups, importing modules for by-name imports, and
# the package itself for the benchmark's own calls.
WRAPS = [
    ("synth.build_counterexample", "build_counterexample", ["", "pipeline"]),
    ("cell.solve_cell_many", "solve_cell_many", ["", "cell"]),
    ("cell.solve_cell", "solve_cell", ["", "cell"]),
    ("cell.sweep_hbar", "sweep_hbar", ["", "cell"]),
    ("cell.solve_lambda_for_periodicity", "solve_lambda_for_periodicity", ["", "cell"]),
    ("cell.momentum_bounds", "momentum_bounds", ["", "cell"]),
    ("cell.sandwich_bounds", "sandwich_bounds", ["", "cell"]),
    ("pipeline.certify_bundle", "certify_bundle", ["", "pipeline"]),
    ("pipeline.scan_certified_halfwidth", "scan_certified_halfwidth", ["pipeline"]),
    ("diagnostics.compute_I", "compute_I", ["pipeline"]),
    ("diagnostics.predict_local_growth", "predict_local_growth", ["pipeline"]),
    ("diagnostics.confirm_prediction", "confirm_prediction", ["pipeline"]),
    ("diagnostics.certify_nonquasiconvex", "certify_nonquasiconvex", ["", "pipeline"]),
    ("multid.build_separable_system", "build_separable_system", ["", "multid"]),
    ("multid.check_sublevel_convexity", "check_sublevel_convexity", ["", "multid"]),
    ("multid.segment_scan", "segment_scan", ["", "multid"]),
    ("pde.long_time_slope", "long_time_slope", ["", "pde"]),
    ("pde.hopf_cole_oracle", "hopf_cole_oracle", ["", "pde"]),
]

COUNTERS = {
    "cell.solve_cell_many": lambda a, kw, r: {"thetas": len(r)},
    "cell.sweep_hbar": lambda a, kw, r: {"failures": len(r.failures)},
    "multid.check_sublevel_convexity": lambda a, kw, r: {"samples": r.samples},
    "pde.long_time_slope": lambda a, kw, r: {
        "steps": math.ceil(r.t_final / r.dt - 1e-9), "retries": r.retries},
}


def install(tracer, hj) -> set:
    """Wrap every binding in WRAPS; return the span names with none left."""
    missing = set()
    for name, attr, sites in WRAPS:
        found = [tracer.wrap(getattr(hj, site) if site else hj, attr, name,
                             COUNTERS.get(name)) for site in sites]
        if not any(found):
            missing.add(name)
    return missing


class _Reduced:
    """Span sums by name, and by name under a given parent."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.self_t = tracer.self_times()

    def spans(self, name=None, prefix=None, parent=None):
        for s in self.tracer.spans:
            if name is not None and s.name != name:
                continue
            if prefix is not None and not s.name.startswith(prefix):
                continue
            if parent is not None and self.tracer.name_of(s.parent) != parent:
                continue
            yield s

    def incl(self, **kw) -> float:
        return sum(s.duration for s in self.spans(**kw))

    def self_s(self, **kw) -> float:
        return sum(self.self_t[s.sid] for s in self.spans(**kw))

    def calls(self, **kw) -> int:
        return sum(1 for _ in self.spans(**kw))

    def count(self, key: str) -> float:
        return self.tracer.counts.get(key, 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, better, moves, span names it needs, reducer)
# ``moves`` lists "<end-to-end metric>@<workload>" pairs the layer should move.
CERT = "work_s@certify_multid"
SWEEP = "ops_per_s@sweep_wide"
PDE = "work_s@crosscheck"
LAYERS = {
    "synth.build_s": ("s", "lower", ["setup_s@certify_multid", "setup_s@crosscheck"],
                      ["synth.build_counterexample"],
                      lambda r: r.incl(name="synth.build_counterexample")),
    "cell.solve_many.calls": ("count", "lower", [CERT, SWEEP], ["cell.solve_cell_many"],
                              lambda r: r.calls(name="cell.solve_cell_many")),
    "cell.solve_many.thetas": ("count", "lower", [CERT, SWEEP], ["cell.solve_cell_many"],
                               lambda r: r.count("cell.solve_cell_many.thetas")),
    "cell.solve_many.self_s": ("s", "lower", [CERT, SWEEP], ["cell.solve_cell_many"],
                               lambda r: r.self_s(name="cell.solve_cell_many")),
    # base: cell.solve_many.thetas
    "cell.s_per_theta": ("s", "lower", [CERT, SWEEP], ["cell.solve_cell_many"],
                         lambda r: _ratio(r.self_s(prefix="cell."),
                                          r.count("cell.solve_cell_many.thetas"))),
    "cell.sweep.self_s": ("s", "lower", [SWEEP], ["cell.sweep_hbar"],
                          lambda r: r.self_s(name="cell.sweep_hbar")),
    "cell.sweep.failures": ("count", "lower", [SWEEP, "pass_frac@sweep_wide"],
                            ["cell.sweep_hbar"],
                            lambda r: r.count("cell.sweep_hbar.failures")),
    "cell.solve_one.calls": ("count", "lower", [SWEEP], ["cell.solve_cell"],
                             lambda r: r.calls(name="cell.solve_cell")),
    # the serial fallback's inner solves (one per bracket or Newton step in p0)
    "cell.solve_lambda.calls": ("count", "lower", [SWEEP],
                                ["cell.solve_lambda_for_periodicity"],
                                lambda r: r.calls(name="cell.solve_lambda_for_periodicity")),
    "cell.solve_lambda.s": ("s", "lower", [SWEEP], ["cell.solve_lambda_for_periodicity"],
                            lambda r: r.incl(name="cell.solve_lambda_for_periodicity")),
    "cell.bounds_check_s": ("s", "lower", [CERT],
                            ["cell.momentum_bounds", "cell.sandwich_bounds"],
                            lambda r: r.incl(name="cell.momentum_bounds")
                            + r.incl(name="cell.sandwich_bounds")),
    "cell.rk4_us_per_step": ("us", "lower", [CERT, SWEEP], [], None),
    "pipeline.scan_s": ("s", "lower", [CERT], ["pipeline.scan_certified_halfwidth"],
                        lambda r: r.incl(name="pipeline.scan_certified_halfwidth")),
    "pipeline.sweep_s": ("s", "lower", [CERT], ["cell.sweep_hbar", "pipeline.certify_bundle"],
                         lambda r: r.incl(name="cell.sweep_hbar",
                                          parent="pipeline.certify_bundle")),
    "pipeline.resolve_s": ("s", "lower", [CERT],
                           ["cell.solve_cell_many", "pipeline.certify_bundle"],
                           lambda r: r.incl(name="cell.solve_cell_many",
                                            parent="pipeline.certify_bundle")),
    "pipeline.self_s": ("s", "lower", [CERT], ["pipeline.certify_bundle"],
                        lambda r: r.self_s(prefix="pipeline.")),
    "diagnostics.calls": ("count", "lower", [CERT], ["diagnostics.compute_I"],
                          lambda r: r.calls(prefix="diagnostics.")),
    "diagnostics.self_s": ("s", "lower", [CERT], ["diagnostics.compute_I"],
                           lambda r: r.self_s(prefix="diagnostics.")),
    "multid.build_s": ("s", "lower", [CERT], ["multid.build_separable_system"],
                       lambda r: r.incl(name="multid.build_separable_system")),
    "multid.convexity_s": ("s", "lower", [CERT], ["multid.check_sublevel_convexity"],
                           lambda r: r.incl(name="multid.check_sublevel_convexity")),
    "multid.convexity_samples": ("count", "higher", [CERT],
                                 ["multid.check_sublevel_convexity"],
                                 lambda r: r.count("multid.check_sublevel_convexity.samples")),
    "multid.segment_scan_s": ("s", "lower", [CERT], ["multid.segment_scan"],
                              lambda r: r.incl(name="multid.segment_scan")),
    "hamiltonians.eval_us_b129": ("us", "lower", [CERT, SWEEP], [], None),
    "hamiltonians.d1_us_b129": ("us", "lower", [CERT, SWEEP], [], None),
    "hamiltonians.eval_us_n4096": ("us", "lower", [PDE], [], None),
    "pde.steps": ("count", "lower", [PDE], ["pde.long_time_slope"],
                  lambda r: r.count("pde.long_time_slope.steps")),
    "pde.retries": ("count", "lower", [PDE], ["pde.long_time_slope"],
                    lambda r: r.count("pde.long_time_slope.retries")),
    "pde.us_per_step": ("us", "lower", [PDE], ["pde.long_time_slope"],
                        lambda r: 1e6 * _ratio(r.incl(name="pde.long_time_slope"),
                                               r.count("pde.long_time_slope.steps"))),
    "pde.oracle_s_per_theta": ("s", "lower", [PDE], ["pde.hopf_cole_oracle"],
                               lambda r: _ratio(r.incl(name="pde.hopf_cole_oracle"),
                                                r.calls(name="pde.hopf_cole_oracle"))),
    # trace health: tracing cost against the untraced run, and the share of
    # the timed wall that top-level spans cover
    "trace.overhead_frac": ("frac", "lower", [], [], None),
    "trace.span_cover_frac": ("frac", "higher", [], [], None),
}


def reduce_spans(tracer, missing: set, t_start: float, t_end: float) -> dict:
    """Span-derived layer metrics, leaving out those that need a span in
    ``missing``."""
    r = _Reduced(tracer)
    out = {}
    for name, (_, _, _, needs, fn) in LAYERS.items():
        if fn is not None and not missing.intersection(needs):
            out[name] = float(fn(r))
    top = sum(s.duration for s in tracer.spans
              if s.parent is None and s.start >= t_start and s.end <= t_end)
    out["trace.span_cover_frac"] = top / (t_end - t_start)
    return out


def _per_call_us(fn, arg, loops: int = 400, rounds: int = 7) -> float:
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(arg)
        samples.append((time.perf_counter() - t0) / loops)
    return 1e6 * statistics.median(samples)


def micro(hj, G, probe) -> dict:
    """Per-call floors of the kernels: Hamiltonian evaluation at the RK4
    batch size 129 and the PDE grid size 4096, and one RK4 pass along a
    solved corrector of the workload (0 when the workload solves none)."""
    p129 = np.linspace(-2.0, 2.0, 129)
    p4096 = np.linspace(-2.0, 2.0, 4096)
    out = {"hamiltonians.eval_us_b129": _per_call_us(G.eval, p129),
           "hamiltonians.d1_us_b129": _per_call_us(G.d1, p129),
           "hamiltonians.eval_us_n4096": _per_call_us(G.eval, p4096)}
    if probe is None:
        out["cell.rk4_us_per_step"] = 0.0
        return out
    integrate = getattr(hj, "integrate_cell_ode", None)
    if integrate is None:
        return out
    PG, PV, sol = probe
    steps = len(sol.x_best) - 1
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        integrate(PG, PV, sol.hbar, sol.p0, N=sol.n)
        times.append(time.perf_counter() - t0)
    out["cell.rk4_us_per_step"] = 1e6 * statistics.median(times) / steps
    return out
