"""The ``extract_properties`` skill: schema-driven field extraction.

Reproduces the behaviour shown in the paper's Figure 4, where
``extract_properties`` with a JSON schema pulls ``us_state_abbrev``,
``probable_cause`` and ``weather_related`` out of an NTSB report.

Degradation model: on a slip the model either drops a field (returns
null) or — more damagingly — hallucinates a plausible-but-wrong value,
mirroring the two dominant LLM extraction failure modes.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .. import knowledge
from ..errors import MalformedOutputError
from .common import Noise, extract_field, label_tokens

#: Difficulty weights: booleans derived from concepts slip more often than
#: verbatim metadata-line copies.
_FIELD_DIFFICULTY = {"bool": 0.6, "boolean": 0.6, "string": 0.25, "int": 0.3,
                     "integer": 0.3, "float": 0.3, "number": 0.3}


def run_extract_properties(sections: Dict[str, str], noise: Noise) -> str:
    """Return a JSON object with one key per schema field."""
    try:
        schema: Dict[str, str] = json.loads(sections.get("schema", "{}"))
    except json.JSONDecodeError as exc:
        raise MalformedOutputError(f"unparseable schema section: {exc}") from exc
    document = sections.get("document", "")
    labels = label_tokens(document)  # parsed once, matched per field
    result: Dict[str, Any] = {}
    for field_name, field_type in schema.items():
        value = extract_field(field_name, str(field_type), document, labels)
        weight = _FIELD_DIFFICULTY.get(str(field_type).lower(), 0.3)
        if noise.slips(weight):
            value = _degrade(field_name, str(field_type), value, noise)
        result[field_name] = value
    return json.dumps(result)


def _degrade(field_name: str, field_type: str, value: Any, noise: Noise) -> Any:
    """Produce an erroneous value for a field the model slipped on."""
    mode = noise.choice(["drop", "wrong", "wrong"])
    if mode == "drop":
        return None
    field_type = field_type.lower()
    if field_type in ("bool", "boolean"):
        return (not value) if isinstance(value, bool) else noise.choice([True, False])
    if field_type in ("int", "integer"):
        base = value if isinstance(value, int) else 0
        return base + noise.choice([-2, -1, 1, 2])
    if field_type in ("float", "number"):
        base = value if isinstance(value, (int, float)) else 0.0
        return round(base * noise.choice([0.5, 0.9, 1.1, 2.0]) + 1.0, 2)
    if "state" in field_name.lower():
        return noise.choice(sorted(knowledge.STATE_ABBREVS))
    if isinstance(value, str) and value:
        # Truncated extraction: the model grabbed only part of the span.
        words = value.split()
        return " ".join(words[: max(1, len(words) // 2)])
    return None
