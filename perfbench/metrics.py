"""The metric catalogue: names, units, and what each per-layer metric should move.

Every workload reports every end-to-end metric, so the end-to-end names are
shared and each workload reads them as follows:

=================  ======================  ========================  ======================
metric             verify-cold             queries                   lattice
=================  ======================  ========================  ======================
setup_s            interpreter start and imports of one process; for queries also the
                   generation of the session's query stream (median over the run)
dominance_s        lgts2 + interlace +     summed latency of the     plscheck/clscheck
                   lemmas + pmain          dominance, avoiding and   windows
                                           gap-union queries of a
                                           session
order_s            the six order suites    summed latency of the     hasse + upset commands
                                           inclusion, code and
                                           weight queries
peak_rss_mb        largest process of a    the session process,      largest process of a
                   round                   read after its loop       round
=================  ======================  ========================  ======================

dominance_s and order_s are CPU seconds scaled by the run's yardstick (see
``run.yardstick``); setup_s is plain CPU seconds.
"""

from __future__ import annotations

from workloads import DOMINANCE_SUITES, ORDER_SUITES

END_TO_END = {
    "setup_s": "s",
    "dominance_s": "s",
    "order_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, better, what it should move: "<end-to-end metric>@<workload>", ...)
_ORDER = "order_s@verify-cold order_s@lattice"
_DOM = "dominance_s@verify-cold dominance_s@lattice dominance_s@queries"
PER_LAYER = {
    # cls_codes
    "code_included.calls": ("count", "lower", _ORDER),
    "code_included.s": ("s", "lower", _ORDER),
    "seq_checks_per_inclusion": ("ratio", "lower", _ORDER),
    "seq_leq_shifted.hit_ratio": ("ratio", "higher", _ORDER),
    "seq_leq_shifted.entries": ("count", "lower", _ORDER + " peak_rss_mb@queries"),
    # ideals
    "is_contained.calls": ("count", "lower", _ORDER + " order_s@queries"),
    "is_contained.s": ("s", "lower", _ORDER + " order_s@queries"),
    "is_contained.hit_ratio": ("ratio", "higher", _ORDER + " order_s@queries"),
    "codes_compared_per_inclusion": ("ratio", "lower", _ORDER + " order_s@queries"),
    "cls_union.s": ("s", "lower", _ORDER),
    "containing_ideals.s": ("s", "lower", "order_s@lattice"),
    "highest_weight.s": ("s", "lower", "order_s@queries"),
    # dominance and partitions
    "dominates_oracle.calls": ("count", "lower", _DOM),
    "dominates_oracle.s": ("s", "lower", _DOM),
    "dominates_interlace.s": ("s", "lower", "dominance_s@verify-cold"),
    "gap_criterion.s": ("s", "lower", "dominance_s@verify-cold"),
    "enumerate_classes.s": ("s", "lower", "dominance_s@verify-cold dominance_s@lattice"),
    "dominates_memo.entries": ("count", "lower", _DOM + " peak_rss_mb@queries"),
    "dominates_memo.hit_ratio": ("ratio", "higher", _DOM),
    "children_memo.entries": ("count", "lower", _DOM + " peak_rss_mb@queries"),
    "children_memo.hit_ratio": ("ratio", "higher", _DOM),
    # local_systems
    "window_check.s": ("s", "lower", "dominance_s@lattice"),
    "membership.calls": ("count", "lower", "dominance_s@queries dominance_s@verify-cold"),
    "membership.s": ("s", "lower", "dominance_s@queries dominance_s@verify-cold"),
    # hasse
    "hasse.covering_self_s": ("s", "lower", "order_s@lattice"),
    "hasse.render_s": ("s", "lower", "order_s@lattice"),
    "hasse.covers": ("count", "lower", "order_s@lattice"),
    # verify: one per suite, untraced, plus the suites' own time and checks
    **{
        f"verify.{name}.s": ("s", "lower", "dominance_s@verify-cold")
        for name in DOMINANCE_SUITES
    },
    **{f"verify.{name}.s": ("s", "lower", "order_s@verify-cold") for name in ORDER_SUITES},
    "verify.self_s": ("s", "lower", "dominance_s@verify-cold order_s@verify-cold"),
    "verify.checked": ("count", "higher", "dominance_s@verify-cold order_s@verify-cold"),
    # cli
    "cli.main_self_s": ("s", "lower", "order_s@lattice"),
    "cli.output_bytes": ("count", "lower", "order_s@lattice"),
    # memory: entries summed over every memoized function the scan finds
    "memo.entries": ("count", "lower", "peak_rss_mb@queries"),
    # traced minus untraced time of the same operations
    "trace_overhead_s": ("s", "lower", ""),
}
