"""Acceptance gate: every criterion runs at its frozen grid with zero tolerance.

Each test executes one verify suite on the default (versioned) grid, prints a
pass/fail line, and asserts zero failures.  Grid sizes are asserted too, so a
silently shrunk grid cannot fake a pass.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
from math import comb
from pathlib import Path

from slinf import verify
from slinf.ideals import AUGMENTATION_IDEAL, Ideal

FAMILY_SIZE = 3 * 3 * 6 * 6  # x,y <= 2, diagrams <= 2 columns x length 2
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_and_announce(number, label, suite, expect_checked=None):
    report = verify.run_suite(suite)
    status = "PASS" if report.failed == 0 else "FAIL"
    print(
        f"[acceptance] criterion {number:>2} ({label}): {status} — "
        f"{report.checked} checks, {report.failed} failures"
    )
    assert report.failed == 0, report.counterexamples[:5]
    # byte for byte what `slinf verify <suite>` printed when the golden was captured
    printed = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert printed == (GOLDEN / f"{suite}.json").read_text(encoding="utf-8")
    if expect_checked is not None:
        assert report.checked == expect_checked
    return report


def test_criterion_01_gap_criterion_equals_chain_oracle():
    # width-2 partitions, entries <= 3, against widths 8 and 9, entries <= 6
    expected = 4 * (comb(13, 6) + comb(14, 6))
    report = run_and_announce(1, "quadruple-width criterion == chain oracle", "lgts2", expected)
    assert report.details == {"lam_classes": 4, "mu_classes": comb(13, 6) + comb(14, 6)}


def test_criterion_02_interlace_fast_path_equals_chain_oracle():
    counts = {w: comb(w - 1 + 4, 4) for w in range(1, 6)}
    expected = sum(
        counts[wl] * sum(counts[wm] for wm in range(1, wl + 1)) for wl in range(1, 6)
    )
    run_and_announce(2, "interlacing fast path == chain oracle", "interlace", expected)


def test_criterion_03_lemma_hypotheses_imply_dominance():
    lam_classes = 1 + 4
    mu_classes = sum(comb(w - 1 + 3, 3) for w in range(1, 7))
    report = run_and_announce(
        3, "sufficient-condition hypotheses imply dominance", "lemmas",
        3 * lam_classes * mu_classes,
    )
    hits = report.details["hypothesis_hits"]
    assert all(count > 0 for count in hits.values()), hits  # no vacuous implication


def test_criterion_04_avoiding_system_equals_gap_union():
    expected = 4 * (comb(13, 6) + comb(14, 6) + comb(15, 6))
    run_and_announce(4, "avoiding system == gap union at widths 8..10", "pmain", expected)


def test_criterion_05_code_inclusion_is_partial_order():
    report = run_and_announce(5, "code inclusion is a partial order", "tiap-order")
    assert report.details["codes"] == 1305
    assert report.details["sequences"] == 57
    assert report.checked >= 1305 * 1305


def test_criterion_06_ideal_inclusion_is_partial_order():
    report = run_and_announce(6, "ideal inclusion is a partial order", "ideal-order")
    assert report.details["family"] == FAMILY_SIZE
    assert report.checked >= FAMILY_SIZE * FAMILY_SIZE


def test_criterion_07_augmentation_is_the_unique_maximal_ideal():
    report = run_and_announce(7, "augmentation ideal uniquely maximal", "maximal")
    assert report.details["family"] == FAMILY_SIZE


def test_criterion_08_ascending_chains_stabilize():
    report = run_and_announce(8, "measure drops along inclusions; chains stabilize", "acc")
    assert report.details["chains_run"] == 1000
    assert report.details["longest_chain"] <= FAMILY_SIZE


def test_criterion_09_split_choice_does_not_change_decisions():
    run_and_announce(
        9, "single-split union gives identical decisions", "split-consistency",
        FAMILY_SIZE * FAMILY_SIZE,
    )


def test_criterion_10_printed_condition_discrepancy_report():
    report = run_and_announce(
        10, "printed diagram condition: sound, incomplete", "tord-discrepancy",
        3 * FAMILY_SIZE * FAMILY_SIZE,
    )
    padded = report.details["padded_reading"]
    # (a) the known instance where the printed condition rejects a real inclusion
    assert padded["expected_instance_shown"] is True
    instance = {
        "inner": Ideal(0, 1).to_json(),
        "outer": AUGMENTATION_IDEAL.to_json(),
    }
    assert instance in padded["sample_missed"]
    assert padded["missed_inclusions"] > 0
    # (b) soundness: never true where the code route says no
    assert padded["unsound_cases"] == 0
    # (c) the exact counts of the frozen report, both readings
    assert (padded["missed_inclusions"], padded["unsound_cases"]) == (19595, 0)
    unpadded = report.details["unpadded_reading"]
    assert (unpadded["missed_inclusions"], unpadded["unsound_cases"]) == (6675, 7887)


def test_criterion_11_slack_form_equals_split_search():
    report = run_and_announce(
        11, "closed-form slack test == split search on codes", "code-slack", 1305 * 1305,
    )
    assert report.details == {"codes": 1305, "sequences": 57}
