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
from .hasse import covering_relations, family_hasse, hasse_adjacency, hasse_dot
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
from .verify import VerifyReport, run_suite, suite_names

__version__ = "0.1.0"
