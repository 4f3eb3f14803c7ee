"""Versioned persistence for trained models.

A bundle is one line of compact JSON with sorted keys; ``driftparse inspect
--json`` pretty-prints it.  ``ps`` and each row of ``pt`` and ``pe`` are
stored as one row object: ``fill``, the row's most common value, plus
``index`` and ``value``, the columns that differ from it in ascending order
and their values.  A trained row is nearly all smoothing floor, so this
keeps a bundle small and its save and load short.  Every probability is a
17-significant-digit decimal string, which makes saves byte-deterministic
and load(save(x)) exact.  An Hmm checks its invariants when it is built, so
a load that would build an invalid one raises BundleError instead.
docs/bundle_schema.json describes the layout.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .hmm import Hmm
from .mining import MiningConfig
from .parsing import ParsingPattern

FORMAT_VERSION = 4


class BundleError(ValueError):
    """Malformed, corrupt or incompatible bundle file."""


@dataclass(frozen=True)
class ModelBundle:
    hmm: Hmm
    pattern: ParsingPattern
    mining_config: MiningConfig
    provenance: str


def _decimal(x) -> str:
    return format(float(x), ".17g")


def _sparse_row(row: np.ndarray) -> dict:
    """``row`` as its most common value plus the entries that differ from it.

    Values are compared by their bits, which keeps 0.0 and -0.0 apart; a tie
    for the most common goes to the lowest bit pattern, so saves stay
    byte-deterministic.
    """
    row = np.ascontiguousarray(row, dtype=np.float64)
    bits = row.view(np.uint64)
    patterns, first, counts = np.unique(bits, return_index=True, return_counts=True)
    common = int(np.argmax(counts))
    index = np.flatnonzero(bits != patterns[common])
    return {
        "fill": _decimal(row[first[common]]),
        "index": index.tolist(),
        "value": [_decimal(x) for x in row[index]],
    }


def bundle_to_document(bundle: ModelBundle) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "provenance": bundle.provenance,
        "mining_config": {"threshold": bundle.mining_config.threshold},
        "hmm": {
            "states": list(bundle.hmm.states),
            "emissions": list(bundle.hmm.emissions),
            "ps": _sparse_row(bundle.hmm.ps),
            "pt": [_sparse_row(row) for row in bundle.hmm.pt],
            "pe": [_sparse_row(row) for row in bundle.hmm.pe],
        },
        "pattern": {
            "required_tokens": sorted(bundle.pattern.required_tokens),
            "trigger": bundle.pattern.trigger,
            "kpi_name": bundle.pattern.kpi_name,
            "trigger_aliases": sorted(bundle.pattern.trigger_aliases),
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
    if not {*map(type, values)} <= {str}:
        i = next(i for i, value in enumerate(values) if type(value) is not str)
        raise BundleError(f"bad type at {path}.{key}[{i}]")
    return values


def _str_set(node: dict, key: str, path: str) -> frozenset:
    """A list of distinct strings as a set; a repeated item is refused, not collapsed."""
    seen = set()
    for i, value in enumerate(_str_list(node, key, path)):
        if value in seen:
            raise BundleError(f"repeated item at {path}.{key}[{i}]")
        seen.add(value)
    return frozenset(seen)


def _float_row(node, path: str, width: int) -> np.ndarray:
    """The ``width`` probabilities of one row object (see ``_sparse_row``)."""
    if not isinstance(node, dict):
        raise BundleError(f"bad type at {path}")
    fill = _get(node, "fill", object, path)
    index = _get(node, "index", list, path)
    value = _get(node, "value", list, path)
    if len(index) != len(value):
        raise BundleError(f"index and value lengths differ in {path}")
    if not {*map(type, index)} <= {int}:
        raise BundleError(f"bad index in {path}")
    increasing = all(map(operator.lt, index, index[1:]))
    if index and not (increasing and 0 <= index[0] and index[-1] < width):
        raise BundleError(f"index out of range or not increasing in {path}")
    # the schema stores every probability as a string, so a JSON number or
    # boolean is refused, not passed through float()
    if type(fill) is not str or not {*map(type, value)} <= {str}:
        raise BundleError(f"bad number in {path}")
    try:
        row = np.full(width, float(fill))
        row[index] = list(map(float, value))
    except ValueError:
        raise BundleError(f"bad number in {path}") from None
    return row


def _float_matrix(values: list, path: str, width: int) -> np.ndarray:
    matrix = np.empty((len(values), width))
    for i, row in enumerate(values):
        matrix[i] = _float_row(row, f"{path}[{i}]", width)
    return matrix


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
    ps = _float_row(_get(hm, "ps", dict, "$.hmm"), "$.hmm.ps", len(states))
    pt = _float_matrix(_get(hm, "pt", list, "$.hmm"), "$.hmm.pt", len(states))
    pe = _float_matrix(_get(hm, "pe", list, "$.hmm"), "$.hmm.pe", len(emissions))
    try:
        model = Hmm(states, emissions, ps, pt, pe)
    except ValueError as exc:
        raise BundleError(f"invalid model in $.hmm: {exc}") from None

    pt_doc = _get(doc, "pattern", dict, "$")
    required_tokens = _str_set(pt_doc, "required_tokens", "$.pattern")
    trigger = _get(pt_doc, "trigger", str, "$.pattern")
    kpi_name = _get(pt_doc, "kpi_name", str, "$.pattern")
    trigger_aliases = _str_set(pt_doc, "trigger_aliases", "$.pattern")
    try:
        pattern = ParsingPattern(required_tokens, trigger, kpi_name, trigger_aliases)
    except ValueError as exc:
        raise BundleError(f"invalid pattern in $.pattern: {exc}") from None
    return ModelBundle(model, pattern, mining_config, provenance)


def load_bundle(path) -> ModelBundle:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise BundleError(f"invalid UTF-8 byte {data[exc.start]:#04x} at byte offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise BundleError(f"not valid JSON: {exc}") from None
    return document_to_bundle(doc)
