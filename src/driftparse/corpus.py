"""Log file I/O and the seeded synthetic CT-style corpus generator.

Physical log format: one event per line,
``<timestamp>\t<event_type>\t<event_id>\t<text>``.  Malformed lines are
collected into a rejects report instead of being silently dropped.

The generator produces two system flavors.  System A writes scan events
with a ScanUID field, an mAs tube-current field and abdominal organ
characteristics; the system-B drift profile swaps those for StudyLOID,
mA and head scans with different value ranges, applied to a configurable
fraction of lines so that the drift is gradual rather than total.  The
ground-truth table records exactly the planted dose values of scan
events; the drift profile additionally emits "scan preview" echo events
that repeat the scan text with a dose value that is *not* part of the
truth, which is what false positives are made of.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from random import Random

from .parsing import DEFAULT_KPI, KpiTable
from .preprocess import EventRecord

DRIFT_NONE = "none"
DRIFT_SYSTEM_B = "system_b"

DEFAULT_NOISE_PROFILE = {
    # fraction of system-B scan/preview lines that actually use the drifted template
    "drift_fraction": 0.95,
    # fraction of events that are preview echoes (system_b only)
    "echo_fraction": 0.05,
    # fraction of system-A scan lines whose collimated-width value is unreadable
    "width_na": 0.1,
    # per-field Off probabilities
    "care_off": 0.5,
    "aec_off": 0.5,
    "cbc_off": 0.5,
}

_SCAN_TEMPLATE = (
    "&Load scan protocol&,"
    "@Patient LOID@=#{ploid}#,@Scan@=#1#,@{uid_key}@=#{uid}#,"
    "@Scan protocol name@=#{proto}#,@Organ characteristics@=#{organ}#,"
    "@Body size original@=#MIAdult#,@Scan entry name@=#{entry_name}#,"
    "@Kind@=#{kind}#,@Entry Mode@=#{entry_mode}#,@AutoRange@=#{autorange}#,"
    "@kV@=#{kv}#,@{mas_key}@=#{mas}#,@CARE Dose@=#{care}#,@AEC@=#{aec}#,"
    "@CTDI@=#{ctdi}#,@DLP@=#{dlp}#,@Slice@=#0.6#,@Scan start@=#{scan_start}#,"
    "@Slice Width Collimated@=#{width}#,@No Of Acquisition Slices@=#{slices}#,"
    "@CBC@=#{cbc}#,@SpecialMeas@=#None#"
)

_OTHER_TEMPLATES = (
    ("warmup", "&Tube warmup&,@Voltage@=#{a}#,@Status@=#ok#"),
    ("heartbeat", "&Service heartbeat&,@Uptime@=#{a}#,@Queue@=#{b}#"),
    ("registration", "&Patient registered&,@Patient LOID@=#{a}#,@Ward@=#W{b}#"),
    ("recon", "&Reconstruction job&,@Job@=#J{b}#,@Duration@=#{a}#,@Status@=#done#"),
)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    n_events: int
    kpi_line_fraction: float = 0.35
    drift_profile: str = DRIFT_NONE
    noise_profile: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_events < 1:
            raise ValueError("n_events must be >= 1")
        if not 0 < self.kpi_line_fraction <= 1:
            raise ValueError("kpi_line_fraction must lie in (0, 1]")
        if self.drift_profile not in (DRIFT_NONE, DRIFT_SYSTEM_B):
            raise ValueError(f"unknown drift profile {self.drift_profile!r}")
        unknown = set(self.noise_profile) - set(DEFAULT_NOISE_PROFILE)
        if unknown:
            raise ValueError(f"unknown noise profile keys: {sorted(unknown)}")

    def noise(self, key: str) -> float:
        return self.noise_profile.get(key, DEFAULT_NOISE_PROFILE[key])


@dataclass
class LogLoadResult:
    records: list[EventRecord]
    rejects: list[tuple[int, str, str]]  # (line number, reason, raw line)


def load_log(path) -> LogLoadResult:
    """Read a log file; malformed lines go to the rejects report.

    Each line is decoded on its own, so a line that is not valid UTF-8 is
    one reject and the rest still load.  The first line with a given event
    id is kept; later lines with that id are rejects.
    """
    result = LogLoadResult([], [])
    first_seen: dict[str, int] = {}
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            reason = f"invalid UTF-8 at byte {exc.start} of the line"
            result.rejects.append((lineno, reason, raw.decode("utf-8", "replace")))
            continue
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            result.rejects.append((lineno, f"expected 4 fields, got {len(parts)}", line))
            continue
        timestamp, event_type, event_id, text = parts
        if not text:
            result.rejects.append((lineno, "empty event text", line))
            continue
        if event_id in first_seen:
            reason = f"duplicate event id {event_id}, first on line {first_seen[event_id]}"
            result.rejects.append((lineno, reason, line))
            continue
        first_seen[event_id] = lineno
        result.records.append(EventRecord(event_id, timestamp, event_type, text))
    return result


def write_log(records: list[EventRecord], path) -> None:
    """Write records in the physical log format read by ``load_log``.

    A field holding a tab, carriage return or line feed would split into
    other fields or lines on load, ``load_log`` rejects a line with empty
    text or a repeated event id, and a lone surrogate has no UTF-8 form, so
    each of these raises ``ValueError`` before the file is opened.
    """
    lines = []
    seen: set[str] = set()
    for r in records:
        line = f"{r.timestamp}\t{r.event_type}\t{r.event_id}\t{r.text}"
        if line.count("\t") != 3 or "\r" in line or "\n" in line:
            raise ValueError(f"event {r.event_id!r}: a field holds a tab or line break")
        if not r.text:
            raise ValueError(f"event {r.event_id!r}: empty event text")
        if r.event_id in seen:
            raise ValueError(f"event {r.event_id!r}: duplicate event id")
        seen.add(r.event_id)
        try:
            lines.append((line + "\n").encode("utf-8"))
        except UnicodeEncodeError:
            raise ValueError(f"event {r.event_id!r}: a field has no UTF-8 form") from None
    with open(path, "wb") as fh:
        fh.writelines(lines)


def load_kpi_table(path) -> KpiTable:
    """Read a KPI CSV file; a refusal names the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return KpiTable.from_csv(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: invalid UTF-8 byte {data[exc.start]:#04x}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _scan_fields(rng: Random, config: GeneratorConfig, drifted: bool) -> dict:
    def off_or_on(key):
        return "Off" if rng.random() < config.noise(key) else "On"

    fields = {
        "care": off_or_on("care_off"),
        "aec": off_or_on("aec_off"),
        "cbc": off_or_on("cbc_off"),
        "ctdi": f"{rng.uniform(0.02, 30.0):.3f}",
        "dlp": f"{rng.uniform(0.1, 100.0):.3f}",
        "entry_mode": rng.choice(("standard", "custom")),
        "autorange": rng.choice(("Cont", "None")),
    }
    if drifted:
        fields.update(
            ploid=f"4.0.{rng.randrange(10**9):09d}",
            uid_key="StudyLOID",
            uid=f"1.3.12.2.1107.5.1.4.73307.{rng.randrange(10**26):026d}",
            proto="1_HeadSequence",
            entry_name="Topogram",
            organ="MIOrgCharHead",
            kind="MITopo",
            scan_start="MIRangeStartConsole",
            entry_mode="standard",
            autorange="None",
            kv="80",
            mas_key="mA",
            mas=str(rng.choice((20, 40))),
            width="60",
            slices="6",
        )
    else:
        proto = rng.choice(("rot00", "rot01", "spiral02"))
        fields.update(
            ploid=f"2.0.{rng.randrange(10**6):06d}",
            uid_key="ScanUID",
            uid=f"1.3.12.2.1107.5.1.4.83004.{rng.randrange(10**10):010d}",
            proto=proto,
            entry_name=proto,
            organ="MIOrgCharAbdomen",
            kind="MIRot",
            scan_start="MIRangeStartAuto",
            kv=str(rng.choice((100, 110, 120, 130))),
            mas_key="mAs",
            mas=str(rng.choice((200, 250, 300))),
            width="n.a." if rng.random() < config.noise("width_na") else "60",
            slices="60",
        )
    return fields


def generate_corpus(config: GeneratorConfig) -> tuple[list[EventRecord], KpiTable]:
    """Deterministically generate a corpus plus its ground-truth table."""
    rng = Random(config.seed)
    clock = datetime(2018, 12, 1)
    records: list[EventRecord] = []
    truth = KpiTable()
    drift_b = config.drift_profile == DRIFT_SYSTEM_B
    echo_fraction = config.noise("echo_fraction") if drift_b else 0.0

    for i in range(config.n_events):
        clock += timedelta(seconds=rng.uniform(0.5, 30.0))
        event_id = f"evt-{i:06d}"
        timestamp = clock.isoformat(timespec="seconds")
        draw = rng.random()
        if draw < config.kpi_line_fraction or draw < config.kpi_line_fraction + echo_fraction:
            is_echo = draw >= config.kpi_line_fraction
            drifted = drift_b and rng.random() < config.noise("drift_fraction")
            fields = _scan_fields(rng, config, drifted)
            text = _SCAN_TEMPLATE.format(**fields)
            event_type = "scan_preview" if is_echo else "scan"
            records.append(EventRecord(event_id, timestamp, event_type, text))
            if not is_echo:
                truth.add(event_id, DEFAULT_KPI, fields["ctdi"])
        else:
            event_type, template = _OTHER_TEMPLATES[rng.randrange(len(_OTHER_TEMPLATES))]
            text = template.format(a=f"{rng.uniform(0.1, 500.0):.1f}", b=rng.randrange(1000))
            records.append(EventRecord(event_id, timestamp, event_type, text))
    return records, truth


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(path, config: GeneratorConfig, files: dict) -> None:
    """Record the generation config, seed and output digests."""
    manifest = {
        "seed": config.seed,
        "n_events": config.n_events,
        "kpi_line_fraction": config.kpi_line_fraction,
        "drift_profile": config.drift_profile,
        "noise_profile": {k: config.noise(k) for k in sorted(DEFAULT_NOISE_PROFILE)},
        "files": {name: file_digest(p) for name, p in sorted(files.items())},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
