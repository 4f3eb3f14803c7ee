"""Test helper: a second log family, syslog-style, clean or drifted.

A scan line reads ``ctd[PID]: acquisition done series=N kv=K tube current
C mAs pitch 1.2 ctdi X mGy dlp Y mGy*cm``, and ``sched``, ``kernel`` and
``auth`` lines fill the rest of the log.  Drift rewrites every scan line to
``ctd2[PID]: acq complete series=N kvp=K tube current C mA pitch 0.9 ...``
and adds preview lines, ``ui[PID]: preview acquisition kv=K ctdi X mGy
planned``, with no truth row: they carry the trigger and the two tokens of
the old scan lines that drift removed, ``acquisition`` and ``kv``.
"""

from random import Random

from driftparse.parsing import DEFAULT_KPI, KpiTable
from driftparse.preprocess import EventRecord

SCAN_FRACTION = 0.35
PREVIEW_FRACTION = 0.05


def _other_line(rng, pid):
    return rng.choice((
        ("sched", f"sched[{pid}]: job {rng.randrange(10000)} queued priority {rng.randrange(1, 9)}"),
        ("kernel", f"kernel: usb {rng.randrange(1, 5)}-{rng.randrange(1, 9)}: device reset"),
        ("auth", f"auth[{pid}]: session opened user u{rng.randrange(200)}"),
    ))


def syslog_corpus(seed, n_events, drifted=False):
    """The records of one seeded log of this family, and its truth table."""
    rng = Random(seed)
    records, truth = [], KpiTable()
    for i in range(n_events):
        event_id = f"evt-{i:06d}"
        timestamp = f"2019-03-01T00:{i // 60 % 60:02d}:{i % 60:02d}"
        draw = rng.random()
        pid = rng.randrange(100, 99999)
        kv = rng.choice((80, 100, 120, 140))
        ctdi = f"{rng.uniform(0.02, 30.0):.3f}"
        if draw < SCAN_FRACTION:
            series, current, dlp = rng.randrange(1, 20), rng.randrange(20, 400), f"{rng.uniform(0.1, 900.0):.1f}"
            if drifted:
                text = (f"ctd2[{pid}]: acq complete series={series} kvp={kv} tube current {current} mA "
                        f"pitch 0.9 ctdi {ctdi} mGy dlp {dlp} mGy*cm")
            else:
                text = (f"ctd[{pid}]: acquisition done series={series} kv={kv} tube current {current} mAs "
                        f"pitch 1.2 ctdi {ctdi} mGy dlp {dlp} mGy*cm")
            records.append(EventRecord(event_id, timestamp, "scan", text))
            truth.add(event_id, DEFAULT_KPI, ctdi)
        elif drifted and draw < SCAN_FRACTION + PREVIEW_FRACTION:
            text = f"ui[{pid}]: preview acquisition kv={kv} ctdi {ctdi} mGy planned"
            records.append(EventRecord(event_id, timestamp, "preview", text))
        else:
            records.append(EventRecord(event_id, timestamp, *_other_line(rng, pid)))
    return records, truth
