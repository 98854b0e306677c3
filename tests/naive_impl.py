"""Independent naive reference implementations used as test oracles.

Plain-Python loops written straight from the metric definitions, kept
deliberately free of numpy and of the production code paths.  Records
are (confidence, correct) pairs.  ``read_predictions`` applies the
README's input rules to the text of a prediction file.
"""

import json
import math
import re
from typing import List, Optional, Sequence, Tuple, Union

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


def gradient_naive(
    records: Sequence[Record], tau: float
) -> List[Tuple[int, Optional[float], str]]:
    """(index, value, status) per record: the derivative of cwsa at tau."""
    retained = sum(1 for confidence, _ in records if confidence >= tau)
    scale = retained * (1.0 - tau)
    entries = []
    for i, (confidence, correct) in enumerate(records):
        if confidence < tau:
            entries.append((i, 0.0, "abstained"))
        elif confidence == tau:
            entries.append((i, None, "kink"))
        else:
            entries.append((i, (1.0 if correct else -1.0) / scale, "interior"))
    return entries


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
    for _, (count, conf_sum, hit_sum) in sorted(bins.items()):  # in bin-index order
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


# --------------------------------------------------------------------------
# Prediction-file input rules


def _csv_label(cell: str) -> Optional[int]:
    try:
        return int(cell)
    except ValueError:
        return None


def _csv_number(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def _json_label(value) -> Optional[int]:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, str):
        return _csv_label(value)
    return None


def _json_number(value) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except (ValueError, OverflowError):
        return None


def _record_ok(y_true, y_pred, confidence, credit, class_count) -> bool:
    for label in (y_true, y_pred):
        if label is None or not 0 <= label <= 2**63 - 1:
            return False
        if class_count is not None and label >= class_count:
            return False
    if confidence is None or not 0.0 <= confidence <= 1.0:
        return False
    return credit is None or 0.0 <= credit <= 1.0


def _csv_record(where: dict, line: str):
    """(y_true, y_pred, confidence, credit) of a CSV row, or None if malformed."""
    cells = line.split(",")
    if len(cells) <= max(where["y_true"], where["y_pred"], where["confidence"]):
        return None
    credit = None
    if "credit" in where and where["credit"] < len(cells) and cells[where["credit"]].strip():
        credit = _csv_number(cells[where["credit"]])
        if credit is None or math.isnan(credit):
            return None
    return (
        _csv_label(cells[where["y_true"]]),
        _csv_label(cells[where["y_pred"]]),
        _csv_number(cells[where["confidence"]]),
        credit,
    )


def _jsonl_record(line: str):
    """(y_true, y_pred, confidence, credit) of a JSONL line, or None if malformed."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or "y_true" not in obj:
        return None
    y_pred, confidence = obj.get("y_pred"), obj.get("confidence")
    if "probs" in obj:
        probs = obj["probs"]
        if not isinstance(probs, list) or not probs:
            return None
        if any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in probs):
            return None
        try:
            total = math.fsum(float(p) for p in probs)
        except (ValueError, OverflowError):
            return None
        if not abs(total - 1.0) <= 1e-6:
            return None
        top = max(float(p) for p in probs)
        if "confidence" in obj:
            given = _json_number(confidence)
            if given is None or abs(given - top) > 1e-6:
                return None
        else:
            confidence = top
        if "y_pred" not in obj:
            y_pred = [float(p) for p in probs].index(top)
    elif "y_pred" not in obj or "confidence" not in obj:
        return None
    credit = None
    if obj.get("credit") is not None:
        credit = _json_number(obj["credit"])
        if credit is None or math.isnan(credit):
            return None
    return _json_label(obj["y_true"]), _json_label(y_pred), _json_number(confidence), credit


def read_predictions(
    text: str, fmt: str, class_count: Optional[int] = None
) -> Union[int, Tuple[list, list, list, Optional[list]]]:
    """The columns ``(y_true, y_pred, confidence, credit)`` of a prediction
    file, or the 1-based number of its first line that breaks a rule.

    ``credit`` is ``None`` when no record has one, else a list holding
    ``None`` for the records without.  CSV cells must not hold quotes or
    commas: rows are split on commas.
    """
    lines = re.split(r"\r\n|\r|\n", text)  # the line ends both readers count
    if lines[-1] == "":
        lines.pop()
    first = 1
    if fmt == "csv":
        where = {name.strip(): i for i, name in enumerate(lines[0].split(","))}
        lines, first = lines[1:], 2
    columns: Tuple[list, list, list, list] = ([], [], [], [])
    for line_no, line in enumerate(lines, start=first):
        if (line == "") if fmt == "csv" else (line.strip() == ""):
            continue
        record = _csv_record(where, line) if fmt == "csv" else _jsonl_record(line)
        if record is None or not _record_ok(*record, class_count):
            return line_no
        for column, value in zip(columns, record):
            column.append(value)
    y_true, y_pred, confidence, credit = columns
    return y_true, y_pred, confidence, credit if any(c is not None for c in credit) else None
