"""Decision procedures for Z-partition dominance, coherent local systems,
sequence codes, and the inclusion order on primitive ideals of U(sl(inf)).

Every closed-form criterion in the library is paired with a brute-force
oracle, and the ``verify`` suites replay each one exhaustively at desk
scale; nothing closed-form is trusted unchecked.
"""

from .cls_codes import (
    ClsCode,
    ExtSequence,
    code_included,
    code_included_oracle,
    code_rows,
    seq_leq_shifted,
    seq_slack,
    union_included,
)
from .dominance import (
    dominates_interlace,
    dominates_oracle,
    equal_ends_hypotheses,
    gap_criterion,
    is_gt_step,
    tight_gaps_hypotheses,
    wide_window_hypotheses,
)
from .ideals import (
    AUGMENTATION_IDEAL,
    ZERO_IDEAL,
    Ideal,
    Weight,
    acc_measure,
    cls_union,
    code_sequence,
    containing_ideals,
    diagram_order_condition,
    enumerate_diagrams,
    enumerate_ideals,
    highest_weight,
    inclusion_rows,
    is_contained,
    is_maximal,
    make_weight,
)
from .local_systems import (
    LevelWindow,
    LocalSystem,
    avoiding_system,
    avoiding_system_contains,
    forbidden_to_coherent,
    gap_system_contains,
    gap_union_contains,
    gap_union_system,
    is_coherent_on_window,
    is_precoherent_on_window,
)
from .partitions import (
    as_young_diagram,
    as_zpartition,
    canonicalize,
    enumerate_classes,
    gt_children,
    is_canonical,
    shift,
)

__version__ = "0.1.0"

# The modules that most commands never use, and their names, are imported on
# first access (PEP 562): importing slinf or running a decision compiles neither.
_LAZY = {
    **dict.fromkeys(("verify", "VerifyReport", "run_suite", "suite_names"), "verify"),
    **dict.fromkeys(("hasse", "covering_relations", "family_hasse", "hasse_adjacency", "hasse_dot"), "hasse"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    if name == _LAZY[name]:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
