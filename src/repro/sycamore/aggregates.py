"""Analytic transform implementations: sorting, grouping, aggregation.

Per §5.2 these operate on document *properties* and "all handle missing
values to accommodate the fact that some documents may be missing certain
fields": missing keys never raise — they sort last, group under ``None``,
and are excluded from numeric aggregates.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..docmodel.document import Document

AGG_FUNCS = ("sum", "avg", "min", "max", "count", "median")

#: The structured comparison operators, by name: the one table behind
#: ``filter_by_property``, Luna's ``BasicFilter``, the folded scan filter
#: and the plan checker's list of valid comparator names.
COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "contains": lambda a, b: str(b).lower() in str(a).lower(),
}


def property_getter(field: str) -> Callable[[Document], Any]:
    """Accessor for a property; missing -> None.

    A literal key match wins (join outputs store merged properties under
    keys like ``right.sector``); otherwise the name is treated as a
    dotted path into nested dictionaries.
    """
    parts = field.split(".")

    def get(document: Document) -> Any:
        if field in document.properties:
            return document.properties[field]
        value: Any = document.properties
        for part in parts:
            if not isinstance(value, dict) or part not in value:
                return None
            value = value[part]
        return value

    return get


def property_predicate(field: str, op: str, value: Any) -> Callable[[Document], bool]:
    """Structured comparison on a property, as a per-document predicate.

    Missing values never match, and neither does a value whose type
    cannot be compared with ``value``. The predicate never raises.
    """
    if op not in COMPARATORS:
        raise ValueError(f"unknown operator {op!r}; known: {sorted(COMPARATORS)}")
    compare = COMPARATORS[op]
    get = property_getter(field)

    def predicate(document: Document) -> bool:
        actual = get(document)
        if actual is None:
            return False
        try:
            return bool(compare(actual, value))
        except TypeError:
            return False

    return predicate


def sort_documents(
    documents: List[Document], field: str, descending: bool = False
) -> List[Document]:
    """Stable sort by property; documents missing the field go last."""
    get = property_getter(field)

    def key(document: Document) -> Tuple[int, Any]:
        value = get(document)
        if value is None:
            return (1, 0)
        return (0, _orderable(value, descending))

    return sorted(documents, key=key)


def _orderable(value: Any, descending: bool) -> Any:
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        return -value if descending else value
    text = str(value)
    if descending:
        # Invert lexicographic order without relying on reverse=True, so
        # that missing values still sort last either way.
        return tuple(-ord(c) for c in text)
    return text


def group_counts(documents: List[Document], field: str) -> Dict[Any, int]:
    """Occurrences of each value of ``field`` (missing grouped under None)."""
    get = property_getter(field)
    counts: Dict[Any, int] = {}
    for document in documents:
        value = get(document)
        key = value if _hashable(value) else str(value)
        counts[key] = counts.get(key, 0) + 1
    return counts


def top_k_values(
    documents: List[Document], field: str, k: int = 1, descending: bool = True
) -> List[Tuple[Any, int]]:
    """Most (or least) frequent values of ``field``; ties break on value."""
    counts = group_counts(documents, field)
    counts.pop(None, None)
    ordered = sorted(
        counts.items(),
        key=lambda item: ((-item[1] if descending else item[1]), str(item[0])),
    )
    return ordered[:k]


def distinct_documents(documents: List[Document], field: str) -> List[Document]:
    """The first document per distinct value of ``field``, in input order.

    List values compare as tuples; other unhashable values by their text.
    """
    get = property_getter(field)
    seen = set()
    kept = []
    for document in documents:
        value = get(document)
        key = tuple(value) if isinstance(value, list) else value
        if not _hashable(key):
            key = str(value)
        if key not in seen:
            seen.add(key)
            kept.append(document)
    return kept


def project_fields(
    documents: List[Document], fields: "str | Sequence[str]"
) -> List[Any]:
    """Values of the named properties, per document.

    One field yields a flat list; several yield one tuple per document.
    """
    if isinstance(fields, str):
        fields = [fields]
    getters = [property_getter(str(name)) for name in fields]
    if len(getters) == 1:
        return [getters[0](document) for document in documents]
    return [tuple(get(document) for get in getters) for document in documents]


def aggregate_field(
    documents: List[Document], func: str, field: str
) -> Optional[float]:
    """Numeric aggregate over a property; non-numeric/missing values skipped.

    Returns ``None`` for an empty input (except ``count``, which is 0).
    """
    if func not in AGG_FUNCS:
        raise ValueError(f"unknown aggregate {func!r}; known: {AGG_FUNCS}")
    get = property_getter(field)
    values: List[float] = []
    for document in documents:
        value = get(document)
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            values.append(float(value))
    if func == "count":
        return float(len(values))
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "avg":
        return sum(values) / len(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    values.sort()
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def grouped_aggregate(
    documents: List[Document], func: str, field: str, group_by: str
) -> Dict[Any, Optional[float]]:
    """Per-group aggregate of ``field`` grouped by ``group_by``."""
    get_group = property_getter(group_by)
    groups: Dict[Any, List[Document]] = {}
    for document in documents:
        value = get_group(document)
        key = value if _hashable(value) else str(value)
        groups.setdefault(key, []).append(document)
    return {key: aggregate_field(members, func, field) for key, members in groups.items()}


def reduce_by_key(
    documents: List[Document],
    key_fn: Callable[[Document], Any],
    reduce_fn: Callable[[List[Document]], Any],
) -> List[Document]:
    """Generic reduce: group by ``key_fn``, reduce each group to a value.

    Returns one synthetic document per group with properties ``key`` and
    ``value`` — the shape downstream transforms and writers expect.
    """
    groups: Dict[Any, List[Document]] = {}
    order: List[Any] = []
    for document in documents:
        key = key_fn(document)
        if not _hashable(key):
            key = str(key)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(document)
    results = []
    for key in order:
        results.append(
            Document(properties={"key": key, "value": reduce_fn(groups[key])})
        )
    return results


def hash_join(
    left: List[Document],
    right: List[Document],
    left_on: str,
    right_on: str,
    how: str = "inner",
) -> List[Document]:
    """Property-equality hash join producing merged documents.

    The merged document keeps the left document's identity and text and
    gains the right document's properties under ``right.<name>``.
    ``how`` is ``inner`` or ``left``. (The paper notes Sycamore "does not
    yet support full joins"; this implements the equality join Luna's
    operator set needs, as a forward-looking extension — see DESIGN.md.)
    """
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")
    get_right = property_getter(right_on)
    index: Dict[Any, List[Document]] = {}
    for document in right:
        key = get_right(document)
        if key is None or not _hashable(key):
            continue
        index.setdefault(key, []).append(document)
    get_left = property_getter(left_on)
    results: List[Document] = []
    for document in left:
        key = get_left(document)
        matches = index.get(key, []) if key is not None else []
        if not matches:
            if how == "left":
                results.append(document.copy())
            continue
        for match in matches:
            merged = document.copy()
            for name, value in match.properties.items():
                merged.properties[f"right.{name}"] = value
            results.append(merged)
    return results


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True
