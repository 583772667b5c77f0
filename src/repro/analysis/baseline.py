"""Baseline suppression — adopt the linter without fixing the world first.

A baseline file records the fingerprints of currently-accepted findings
(with a count per fingerprint, since the same violation can occur more
than once in a file).  ``repro lint --write-baseline`` snapshots the
current findings; later runs subtract the baseline and fail only on
*new* findings.

Fingerprints (file version 2) are ``rule::path::symbol::sha1(content)[:12]``:
anchored on the enclosing symbol and the flagged line's text, so
unrelated edits — including ones that renumber every line — do not
churn the committed file.  Any other file version is rejected.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Sequence

from .findings import Finding
from .framework import AnalysisError

BASELINE_VERSION = 2

#: Default baseline location, relative to the working directory.
DEFAULT_BASELINE = ".reprolint.json"


def write_baseline(findings: Sequence[Finding], path: str | Path) -> int:
    """Snapshot ``findings`` as the accepted baseline; returns the count."""
    counts = Counter(f.fingerprint for f in findings)
    doc = {
        "version": BASELINE_VERSION,
        "fingerprints": dict(sorted(counts.items())),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return sum(counts.values())


def load_baseline(path: str | Path) -> Counter:
    """Load a baseline file into a fingerprint -> allowance counter."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise AnalysisError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "fingerprints" not in doc:
        raise AnalysisError(f"baseline {path} has no 'fingerprints' map")
    version = doc.get("version")
    if version != BASELINE_VERSION:
        raise AnalysisError(
            f"baseline {path} has version {version!r}, "
            f"expected {BASELINE_VERSION}"
        )
    fingerprints = doc["fingerprints"]
    if not isinstance(fingerprints, dict):
        raise AnalysisError(f"baseline {path}: 'fingerprints' must be a map")
    return Counter({str(k): int(v) for k, v in fingerprints.items()})


def apply_baseline(findings: Sequence[Finding],
                   baseline: Counter) -> tuple[list[Finding], int]:
    """Split findings into (new, n_suppressed) against a baseline.

    Each fingerprint suppresses up to its recorded count of occurrences;
    findings beyond the allowance are treated as new.
    """
    allowance = Counter(baseline)
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        if allowance[finding.fingerprint] > 0:
            allowance[finding.fingerprint] -= 1
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed
