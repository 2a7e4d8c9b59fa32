"""The benchmark's metric catalogue: names, units, directions and the map
from each per-layer metric to the end-to-end metrics it should move.

BENCHMARK.json lists the same names, units and directions; the harness
self-test checks that the two agree and that every run emits them all.
"""

# (name, unit, better). Untraced runs report these; the timings are
# corrected to a nominal host speed (see worker.py).
END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("item_ms.p50", "ms", "lower"),
    ("item_ms.p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better). Traced runs report these. Calls and self times are
# totals over the traced phase, which runs a fixed list of items, so the
# counts repeat exactly for a fixed seed and --seconds.
PER_LAYER = (
    ("hilbert.calls", "count", "lower"),
    ("hilbert.self_ms", "ms", "lower"),
    ("hilbert.eigh_calls", "count", "lower"),
    ("measure.calls", "count", "lower"),
    ("measure.self_ms", "ms", "lower"),
    ("fusion.calls", "count", "lower"),
    ("fusion.self_ms", "ms", "lower"),
    ("fusion.frame_sum_calls", "count", "lower"),
    ("resolution.calls", "count", "lower"),
    ("resolution.self_ms", "ms", "lower"),
    ("resolution.gram_sum_calls", "count", "lower"),
    ("theorems.calls", "count", "lower"),
    ("theorems.self_ms", "ms", "lower"),
    ("perturbation.calls", "count", "lower"),
    ("perturbation.self_ms", "ms", "lower"),
    ("perturbation.subsets_checked", "count", "lower"),
    ("instances.calls", "count", "lower"),
    ("instances.self_ms", "ms", "lower"),
    ("serialize.calls", "count", "lower"),
    ("serialize.self_ms", "ms", "lower"),
    ("serialize.dumps_ms", "ms", "lower"),
    ("serialize.loads_ms", "ms", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("serialize.bytes_in", "bytes", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.call_ms.p50", "ms", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.items_per_s_traced", "1/s", "higher"),
    ("trace.items_per_s_untraced", "1/s", "higher"),
    ("trace.items", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.harness_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# Per-layer metric prefix -> (end-to-end metrics it should move, workloads
# where it should show). Written down before measuring, as the basis for
# later claims that a layer change moved an end-to-end number.
LAYER_MAP = {
    "fusion.*": (
        ("items_per_s", "item_ms.p90"),
        "checks_small: projection-identity items make 1000 one-vector frame_sum "
        "calls each and set the p90; little effect on stress_large",
    ),
    "theorems.*": (("items_per_s", "item_ms.p90"), "checks_small"),
    "resolution.*": (
        ("items_per_s",),
        "perturb_small: the composite check makes 1000 gram_sum probes; also checks_small",
    ),
    "perturbation.*": (
        ("items_per_s", "item_ms.p90"),
        "perturb_small (exhaustive scans) and stress_large (the sampled scan); zero on checks_small",
    ),
    "hilbert.*": (("items_per_s",), "perturb_small (one eigh per subset) and checks_small"),
    "instances.*": (
        ("items_per_s", "item_ms.p90"),
        "perturb_small (perturbed_resolution_instance runs an exact subset scan) "
        "and stress_large (large builds)",
    ),
    "measure.*": (("items_per_s",), "checks_small (sweep items) and cli_calls (sweep)"),
    "serialize.*": (
        ("items_per_s", "peak_rss_mb", "item_ms.p50"),
        "stress_large (64x400 dumps/loads round trip; run, but not gated in "
        "BENCHMARK.json); item_ms.p50 on cli_calls; zero on checks_small and perturb_small",
    ),
    "cli.*": (
        ("item_ms.p50", "items_per_s"),
        "cli_calls only: interpreter start plus import dominate a call; "
        "cli.import_ms is a timed 'import framelab.cli' minus a bare interpreter",
    ),
    "trace.*": (
        (),
        "every workload: checks the trace itself; overhead_ratio is traced over "
        "untraced items_per_s on the same items, with both bases reported",
    ),
}
