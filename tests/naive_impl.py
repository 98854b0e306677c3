"""Independent naive reference implementations used as test oracles.

Plain-Python loops written straight from the metric definitions, kept
deliberately free of numpy and of the production code paths.  Records
are (confidence, correct) pairs.
"""

from typing import List, Optional, Sequence, Tuple

Record = Tuple[float, bool]


def weight(confidence: float, tau: float) -> float:
    return (confidence - tau) / (1.0 - tau)


def cwsa_naive(records: Sequence[Record], tau: float) -> float:
    total = 0.0
    retained = 0
    for confidence, correct in records:
        if confidence >= tau:
            retained += 1
            total += weight(confidence, tau) * (1.0 if correct else -1.0)
    if retained == 0:
        return 0.0
    return total / retained


def point_sums_naive(records: Sequence[Record], tau: float) -> Tuple[int, int, float, float]:
    """(retained, hits, s_correct, s_wrong), each weight sum taken left to right."""
    retained = 0
    hits = 0
    s_correct = 0.0
    s_wrong = 0.0
    for confidence, correct in records:
        if confidence >= tau:
            retained += 1
            if correct:
                hits += 1
                s_correct += weight(confidence, tau)
            else:
                s_wrong += weight(confidence, tau)
    return retained, hits, s_correct, s_wrong


def credit_sum_naive(
    records: Sequence[Record], credits: Sequence[float], tau: float
) -> Tuple[int, float]:
    """(retained, sum of weight * (2 * credit - 1)) taken left to right."""
    retained = 0
    total = 0.0
    for (confidence, _), credit in zip(records, credits):
        if confidence >= tau:
            retained += 1
            total += weight(confidence, tau) * (2.0 * credit - 1.0)
    return retained, total


def cwsa_generalized_naive(
    records: Sequence[Record], credits: Sequence[float], tau: float
) -> float:
    retained, total = credit_sum_naive(records, credits, tau)
    if retained == 0:
        return 0.0
    return total / retained


def cwsa_plus_naive(records: Sequence[Record], tau: float) -> float:
    total = 0.0
    retained = 0
    for confidence, correct in records:
        if confidence >= tau:
            retained += 1
            if correct:
                total += weight(confidence, tau)
    if retained == 0:
        return 0.0
    return total / retained


def selective_accuracy_naive(records: Sequence[Record], tau: float) -> Optional[float]:
    retained = 0
    hits = 0
    for confidence, correct in records:
        if confidence >= tau:
            retained += 1
            if correct:
                hits += 1
    if retained == 0:
        return None
    return hits / retained


def coverage_naive(records: Sequence[Record], tau: float) -> float:
    retained = sum(1 for confidence, _ in records if confidence >= tau)
    return retained / len(records)


def prefix_risks_naive(records: Sequence[Record]) -> List[float]:
    order = sorted(range(len(records)), key=lambda i: -records[i][0])
    risks = []
    wrong = 0
    for k, i in enumerate(order, start=1):
        if not records[i][1]:
            wrong += 1
        risks.append(wrong / k)
    return risks


def aurc_naive(records: Sequence[Record]) -> float:
    total = 0.0
    for risk in prefix_risks_naive(records):
        total += risk
    return total / len(records)


def eaurc_naive(records: Sequence[Record]) -> float:
    # prefix risks of the ideal ordering itself (correct first), without
    # the confidence re-sort that aurc applies
    ideal = [r for r in records if r[1]] + [r for r in records if not r[1]]
    wrong = 0
    total = 0.0
    for k, (_, correct) in enumerate(ideal, start=1):
        if not correct:
            wrong += 1
        total += wrong / k
    return aurc_naive(records) - total / len(records)


def _bin_of(confidence: float, bin_count: int) -> int:
    for b in range(bin_count):
        lo = b / bin_count
        hi = (b + 1) / bin_count
        if confidence >= lo and (confidence < hi or b == bin_count - 1):
            return b
    raise AssertionError(f"confidence {confidence} fell through the bins")


def _bin_gaps_naive(records: Sequence[Record], bin_count: int):
    bins = {}
    for confidence, correct in records:
        b = _bin_of(confidence, bin_count)
        count, conf_sum, hit_sum = bins.get(b, (0, 0.0, 0))
        bins[b] = (count + 1, conf_sum + confidence, hit_sum + (1 if correct else 0))
    gaps = []
    for count, conf_sum, hit_sum in bins.values():
        gaps.append((count, abs(hit_sum / count - conf_sum / count)))
    return gaps


def ece_naive(records: Sequence[Record], bin_count: int) -> float:
    n = len(records)
    total = 0.0
    for count, gap in _bin_gaps_naive(records, bin_count):
        total += (count / n) * gap
    return total


def mce_naive(records: Sequence[Record], bin_count: int) -> float:
    return max(gap for _, gap in _bin_gaps_naive(records, bin_count))


def brier_naive(records: Sequence[Record]) -> float:
    total = 0.0
    for confidence, correct in records:
        delta = 1.0 if correct else 0.0
        total += (confidence - delta) ** 2
    return total / len(records)
