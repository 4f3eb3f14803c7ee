"""Versioned persistence for trained models.

A bundle is one line of compact JSON with sorted keys and probabilities
rendered as 17-significant-digit decimal strings, which makes saves
byte-deterministic and load(save(x)) exact; ``driftparse inspect --json``
pretty-prints it.  Every load re-checks the model invariants before the
model can be used.  docs/bundle_schema.json describes the layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hmm import Hmm
from .mining import MiningConfig
from .parsing import ParsingPattern

FORMAT_VERSION = 3


class BundleError(ValueError):
    """Malformed, corrupt or incompatible bundle file."""


@dataclass(frozen=True)
class ModelBundle:
    hmm: Hmm
    pattern: ParsingPattern
    mining_config: MiningConfig
    provenance: str


def _decimal_strings(values: np.ndarray) -> list:
    """``values`` as nested lists of ``format(float(x), ".17g")`` strings.

    A model repeats a few dozen probabilities across its whole ``pe``, so
    each distinct bit pattern is formatted once and the lists are built by
    lookup; keying on the bits keeps 0.0 and -0.0 apart.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    strings = np.array([format(float(x), ".17g") for x in bits.view(np.float64)], dtype=object)
    return strings[inverse.reshape(values.shape)].tolist()


def bundle_to_document(bundle: ModelBundle) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "provenance": bundle.provenance,
        "mining_config": {"threshold": bundle.mining_config.threshold},
        "hmm": {
            "states": list(bundle.hmm.states),
            "emissions": list(bundle.hmm.emissions),
            "ps": _decimal_strings(bundle.hmm.ps),
            "pt": _decimal_strings(bundle.hmm.pt),
            "pe": _decimal_strings(bundle.hmm.pe),
        },
        "pattern": {
            "required_tokens": sorted(bundle.pattern.required_tokens),
            "trigger": bundle.pattern.trigger,
            "kpi_name": bundle.pattern.kpi_name,
            "trigger_aliases": list(bundle.pattern.trigger_aliases),
        },
    }


def save_bundle(bundle: ModelBundle, path) -> None:
    # no indent, so json uses its C encoder
    text = json.dumps(bundle_to_document(bundle), sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _get(node: dict, key: str, kind, path: str):
    if not isinstance(node, dict) or key not in node:
        raise BundleError(f"missing field at {path}.{key}")
    value = node[key]
    if kind is int and isinstance(value, bool):
        raise BundleError(f"bad type at {path}.{key}")
    if not isinstance(value, kind):
        raise BundleError(f"bad type at {path}.{key}")
    return value


def _str_list(node: dict, key: str, path: str) -> list:
    values = _get(node, key, list, path)
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise BundleError(f"bad type at {path}.{key}[{i}]")
    return values


def _float_vector(values, path: str) -> np.ndarray:
    if not isinstance(values, list):
        raise BundleError(f"expected array at {path}")
    try:
        # a model row repeats a few distinct values (pe: 36 among 92k entries
        # at 2,300 symbols), so each is checked and parsed once and looked up
        # after; the schema stores every probability as a string, so a JSON
        # number or boolean is refused, not passed through float()
        distinct = set(values)
        if not all(type(x) is str for x in distinct):
            raise TypeError
        parsed = {x: float(x) for x in distinct}
    except (TypeError, ValueError, OverflowError):
        raise BundleError(f"bad number in {path}") from None
    return np.array([parsed[x] for x in values], dtype=float)


def _float_matrix(values, path: str, width: int) -> np.ndarray:
    if not isinstance(values, list):
        raise BundleError(f"expected array at {path}")
    rows = []
    for i, row in enumerate(values):
        vec = _float_vector(row, f"{path}[{i}]")
        if len(vec) != width:
            raise BundleError(f"bad row length at {path}[{i}]")
        rows.append(vec)
    return np.array(rows, dtype=float)


def document_to_bundle(doc: dict) -> ModelBundle:
    version = _get(doc, "format_version", int, "$")
    if version != FORMAT_VERSION:
        raise BundleError(f"unsupported format_version {version}, expected {FORMAT_VERSION}")
    provenance = _get(doc, "provenance", str, "$")

    mc = _get(doc, "mining_config", dict, "$")
    threshold = _get(mc, "threshold", int, "$.mining_config")
    try:
        mining_config = MiningConfig(threshold=threshold)
    except ValueError as exc:
        raise BundleError(f"invalid value at $.mining_config.threshold: {exc}") from None

    hm = _get(doc, "hmm", dict, "$")
    states = tuple(_str_list(hm, "states", "$.hmm"))
    emissions = tuple(_str_list(hm, "emissions", "$.hmm"))
    ps = _float_vector(_get(hm, "ps", list, "$.hmm"), "$.hmm.ps")
    pt = _float_matrix(_get(hm, "pt", list, "$.hmm"), "$.hmm.pt", len(states))
    pe = _float_matrix(_get(hm, "pe", list, "$.hmm"), "$.hmm.pe", len(emissions))
    model = Hmm(states, emissions, ps, pt, pe)
    try:
        model.validate()
    except ValueError as exc:
        raise BundleError(f"invalid model in $.hmm: {exc}") from None

    pt_doc = _get(doc, "pattern", dict, "$")
    try:
        pattern = ParsingPattern(
            required_tokens=frozenset(_str_list(pt_doc, "required_tokens", "$.pattern")),
            trigger=_get(pt_doc, "trigger", str, "$.pattern"),
            kpi_name=_get(pt_doc, "kpi_name", str, "$.pattern"),
            trigger_aliases=tuple(_str_list(pt_doc, "trigger_aliases", "$.pattern")),
        )
    except ValueError as exc:
        raise BundleError(f"invalid pattern in $.pattern: {exc}") from None
    return ModelBundle(model, pattern, mining_config, provenance)


def load_bundle(path) -> ModelBundle:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BundleError(f"not valid JSON: {exc}") from None
    return document_to_bundle(doc)
