"""What the benchmark measures: workloads, metrics, bounds and predictions.

This module is the single source of `BENCHMARK.json` and
`bench/predictions.json`; `python3 bench/regen.py spec` rewrites both, and
`bench/selftest.py` fails when either has drifted from this file.
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
# One run measures for this long.  Calls are repeated only while a further
# call still fits, so on a 2-core 2.1 GHz Xeon VM a fixed-point run (calls of
# about 21 s) makes one call and the two shorter workloads make two.
RUN_SECONDS = 40

# name -> (why it was chosen, unit of work counted by work_per_s, default
# seed).  The default seeds are the acceptance suite's frozen seeds.
WORKLOADS = {
    "fixed-point": (
        "mfg.fixed_point on lq (N=64, P=1000, 5 sweeps, domain certificate): "
        "dense vectorfield.fp calls dominate; the only workload where mfg DP "
        "and cost run",
        "fixed-point sweep",
        11,
    ),
    "bridge": (
        "randomize.compare_pathwise_vs_randomized, frozen flow (N=64, P=1000, "
        "S=100): S separate rsde.solve calls, joint_simulate and the energy "
        "permutation test",
        "common-noise sample",
        7,
    ),
    "rsde-long": (
        "cli rsde solve, tanh-interaction (N=1024, P=64): ~300k small "
        "vectorfield calls; per-call overhead, diagnostics, a large lift and "
        "output files dominate",
        "particle-step of the main solve",
        0,
    ),
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# The timing bounds are the largest allowed: on the 2-core VM the benchmark
# was tuned on, a fixed pure-CPU loop timed in 15 s blocks already drifts by
# 12% between quartiles, so tighter bounds would flag noise.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

# Spans recorded by the traced run: span name, self-time metric, call-count
# metric.  Self time is the span's duration minus its child spans.
SPANS = [
    ("vectorfield.fp", "vectorfield.fp_s", "vectorfield.fp_calls"),
    ("vectorfield.f", "vectorfield.f_s", "vectorfield.f_calls"),
    ("vectorfield.grad", "vectorfield.grad_s", "vectorfield.grad_calls"),
    ("vectorfield.correction", "vectorfield.correction_s",
     "vectorfield.correction_calls"),
    ("vectorfield.cvf_norm", "vectorfield.cvf_norm_s",
     "vectorfield.cvf_norm_calls"),
    ("rsde.solve", "rsde.solve_s", "rsde.solve_calls"),
    ("rsde.resample", "rsde.resample_s", "rsde.resample_calls"),
    ("rsde.martingale", "rsde.martingale_s", "rsde.martingale_calls"),
    ("rsde.apriori", "rsde.apriori_s", "rsde.apriori_calls"),
    ("controlled.estimate_norm", "controlled.estimate_norm_s",
     "controlled.estimate_norm_calls"),
    ("measureflow.check_domain", "measureflow.check_domain_s",
     "measureflow.check_domain_calls"),
    ("measureflow.flow_distance", "measureflow.flow_distance_s",
     "measureflow.flow_distance_calls"),
    ("measureflow.mix", "measureflow.mix_s", "measureflow.mix_calls"),
    ("mfg.best_response", "mfg.best_response_s", "mfg.dp_sweeps"),
    ("mfg.cost", "mfg.cost_s", "mfg.cost_calls"),
    ("mfg.exploitability", "mfg.exploitability_s", "mfg.exploitability_calls"),
    ("randomize.pathwise", "randomize.pathwise_s", "randomize.pathwise_calls"),
    ("randomize.joint", "randomize.joint_s", "randomize.joint_calls"),
    ("randomize.energy_test", "randomize.energy_test_s",
     "randomize.energy_test_calls"),
    ("randomize.sample_lift", "randomize.sample_lift_s",
     "randomize.sample_lift_calls"),
    ("roughpath.lift", "roughpath.lift_s", "roughpath.lift_calls"),
    ("cli.main", "cli.self_s", "cli.main_calls"),
]

# Counters recorded at the same boundaries as the spans.
COUNTERS = [
    ("rsde.particle_steps", "count"),      # particles x steps of solves and continuations
    ("measureflow.domain_windows", "count"),
    ("mfg.escape_rate", "1"),              # mean BestResponse.escape_mass
    ("roughpath.lift_mb", "MiB"),          # largest lift returned, computed nbytes
    ("trace_overhead_s", "s"),             # traced minus untraced wall_s
]

# The rsde.solve scaling sweep of the traced run (tanh-interaction, a
# constant flow of P particles solved with P particles).
SWEEP_P = {"full": (250, 500, 1000, 2000), "smoke": (50, 100)}
SWEEP_P_AT_N = 64
SWEEP_N = (64, 256, 1024)
SWEEP_N_AT_P = {"full": 250, "smoke": 50}
SWEEP_METRICS = [
    ("rsde.solve_exp_P", "1"),
    ("rsde.solve_exp_N", "1"),
] + [(f"roughpath.lift_mb_N{n}", "MiB") for n in SWEEP_N]


def per_layer():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for _, self_name, calls_name in SPANS:
        out.append((self_name, "s", "lower"))
        out.append((calls_name, "count", "lower"))
    out += [(name, unit, "lower") for name, unit in COUNTERS + SWEEP_METRICS]
    return out


# Which end-to-end metric each layer metric should move, and on which
# workloads; a workload missing from "on" is predicted not to move.
PREDICTIONS = [
    {"layer": ["vectorfield.fp_s", "vectorfield.fp_calls"],
     "moves": ["wall_s", "work_per_s"],
     "on": {"fixed-point": "few large dense calls (2000 x 1000 particles)",
            "bridge": "dense calls inside S solves",
            "rsde-long": "many small calls, overhead-bound"}},
    {"layer": ["vectorfield.f_s", "vectorfield.f_calls", "vectorfield.grad_s",
               "vectorfield.correction_s"],
     "moves": ["wall_s", "work_per_s"],
     "on": {"rsde-long": "per-call overhead of small evaluations"}},
    {"layer": ["rsde.solve_s", "rsde.solve_calls", "rsde.resample_s",
               "rsde.resample_calls", "rsde.particle_steps"],
     "moves": ["wall_s", "work_per_s"],
     "on": {"rsde-long": "main solve and continuations across 1024 nodes",
            "fixed-point": "continuations of the domain certificate",
            "bridge": "S separate solves"}},
    {"layer": ["controlled.estimate_norm_s", "controlled.estimate_norm_calls"],
     "moves": ["wall_s"],
     "on": {"fixed-point": "domain windows", "rsde-long": "a priori monitor"}},
    {"layer": ["measureflow.check_domain_s", "measureflow.domain_windows",
               "measureflow.flow_distance_s", "measureflow.mix_s"],
     "moves": ["wall_s"],
     "on": {"fixed-point": "only workload with a measure flow iteration"}},
    {"layer": ["mfg.best_response_s", "mfg.dp_sweeps", "mfg.cost_s",
               "mfg.cost_calls", "mfg.exploitability_s", "mfg.escape_rate"],
     "moves": ["wall_s", "work_per_s"],
     "on": {"fixed-point": "only workload with DP and cost"}},
    {"layer": ["randomize.pathwise_s", "randomize.joint_s",
               "randomize.energy_test_s", "randomize.sample_lift_s"],
     "moves": ["wall_s", "work_per_s"],
     "on": {"bridge": "only workload of the randomization bridge"}},
    {"layer": ["roughpath.lift_s", "roughpath.lift_calls", "roughpath.lift_mb"],
     "moves": ["peak_rss_mb", "setup_s"],
     "on": {"rsde-long": "dense lift at N=1024; small at N=64 elsewhere"}},
    {"layer": ["rsde.martingale_s", "rsde.apriori_s", "vectorfield.cvf_norm_s",
               "cli.self_s"],
     "moves": ["wall_s"],
     "on": {"rsde-long": "only workload through the CLI and its diagnostics"}},
    {"layer": ["trace_overhead_s"],
     "moves": [],
     "on": {"fixed-point": "traced minus untraced wall_s",
            "bridge": "traced minus untraced wall_s",
            "rsde-long": "traced minus untraced wall_s"}},
]


def benchmark_json():
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": f"{why}; unit of work: {unit}"}
            for name, (why, unit, _) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }


def predictions_json():
    """The content of bench/predictions.json, which BENCHMARK.json's fixed
    key set has no room for."""
    return {
        "workloads": {
            name: {"why": why, "unit_of_work": unit, "default_seed": seed}
            for name, (why, unit, seed) in WORKLOADS.items()
        },
        "layer_predictions": PREDICTIONS,
    }
