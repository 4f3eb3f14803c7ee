"""Test helper: one kind of format drift, applied to the scan lines of a clean log."""

from dataclasses import replace
from random import Random


def _shuffle_fields(text, rng):
    head, *fields = text.split(",")
    rng.shuffle(fields)
    return ",".join([head, *fields])


# each transform takes a scan line's text and a seeded Random
DRIFT_KINDS = {
    "none": lambda text, rng: text,
    "fields shuffled": _shuffle_fields,
    "field inserted": lambda text, rng: text.replace(",", ",@Firmware@=#VA40#,", 1),
    "constant value": lambda text, rng: text.replace("@Slice@=#0.6#", "@Slice@=#0.75#"),
    "non-KPI key renamed": lambda text, rng: text.replace("@AEC@=", "@ATEC@="),
    "KPI key renamed": lambda text, rng: text.replace("@CTDI@=", "@CTDIvol@="),
}


def drift_scan_lines(records, kind, seed):
    """The records with kind's transform applied to the text of every scan line."""
    rng = Random(seed)
    transform = DRIFT_KINDS[kind]
    drifted = []
    for record in records:
        if record.event_type == "scan":
            text = transform(record.text, rng)
            # a transform that no longer matches the template would pass as no drift
            assert (text != record.text) == (kind != "none"), f"{kind} left {record.event_id} unchanged"
            record = replace(record, text=text)
        drifted.append(record)
    return drifted
