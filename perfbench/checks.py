"""Output checks applied to every op.  A failed check makes the op failed
and the run incorrect."""

from __future__ import annotations

from modlcc import Coclustering, ModelError


class CheckFailed(Exception):
    pass


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check_fit_doc(doc: dict, sample, null_total: float):
    """A fitted model document reloads, passes the audit, and its recomputed
    criterion matches the stored one and does not exceed the null model's."""
    try:
        model = Coclustering.from_dict(doc, sample)
        model.verify_consistent(sample)
    except ModelError as exc:
        raise CheckFailed(f"model does not reload: {exc}") from None
    total = model.criterion().total
    claimed = doc["criterion"]["total"]
    if not _close(total, claimed, 1e-9):
        raise CheckFailed(f"stored criterion {claimed!r} != recomputed {total!r}")
    if total > null_total and not _close(total, null_total, 1e-9):
        raise CheckFailed(f"criterion {total!r} is worse than the null model's {null_total!r}")


def check_coarsen_doc(doc: dict, requested: tuple[int, int], null_total: float):
    """The cut respects the requested counts; the merge path ends at the null model."""
    ks = max(doc["source_assignment"]) + 1
    kt = max(doc["target_assignment"]) + 1
    if ks > requested[0] or kt > requested[1]:
        raise CheckFailed(f"cut at {ks}x{kt} exceeds the requested {requested[0]}x{requested[1]}")
    last = doc["merge_path"][-1]["criterion"]
    if not _close(last, null_total, 1e-6):
        raise CheckFailed(f"merge path ends at {last!r}, null model is {null_total!r}")


def check_evaluate_doc(doc: dict):
    """Mutual information is H_s + H_t - H_j and non-negative; modularity is in [-1, 1]."""
    mi = doc["mutual_information"]
    expect = doc["entropy_source"] + doc["entropy_target"] - doc["joint_entropy"]
    if not abs(mi - expect) <= 1e-9 * max(1.0, abs(doc["joint_entropy"])):
        raise CheckFailed(f"mutual information {mi!r} != H_s + H_t - H_j = {expect!r}")
    if mi < -1e-9:
        raise CheckFailed(f"negative mutual information {mi!r}")
    q = doc.get("modularity")
    if q is None or not -1.0 <= q <= 1.0:
        raise CheckFailed(f"modularity {q!r} outside [-1, 1]")
