"""Machine-readable run reports for the CLI verification suites.

A report captures the command, its effective configuration, counters,
and any violation witnesses; its outcome is `violation` exactly when it
lists a witness, and `pass` otherwise.  Serialization is deterministic
(sorted keys, canonical witness order); wall time is carried separately so
that two runs of the same seeded command produce byte-identical canonical
documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
VIOLATION = "violation"


class UsageError(ValueError):
    """Invalid configuration: exit code 2."""


def _plain(obj):
    """Recursively convert sets/tuples to sorted lists for stable JSON."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (set, frozenset)):
        return sorted((_plain(x) for x in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


@dataclass
class RunReport:
    command: str
    config: dict
    counters: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def outcome(self):
        return VIOLATION if self.witnesses else PASS

    def canonical(self):
        """The deterministic part of the report (no wall time)."""
        import hashlib  # OpenSSL-backed: loaded only where a digest is made
        doc = {
            "command": self.command,
            "config": _plain(self.config),
            "outcome": self.outcome,
            "counters": _plain(self.counters),
            "witnesses": _plain(self.witnesses),
        }
        doc["digest"] = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()[:16]
        return doc

    def canonical_json(self):
        return json.dumps(self.canonical(), sort_keys=True, indent=2)

    def to_json(self):
        doc = self.canonical()
        doc["wall_time_s"] = round(self.wall_time_s, 3)
        return json.dumps(doc, sort_keys=True, indent=2)

    @property
    def exit_code(self):
        return {PASS: 0, VIOLATION: 1}[self.outcome]


def rows_to_csv(rows, header):
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()
