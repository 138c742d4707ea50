"""Deterministic report assembly: fixed key order, string-encoded rationals,
and a canonical digest that excludes timing."""

from __future__ import annotations

import hashlib
import json
import time

from .invariants import InvariantReport, analyze
from .model import ProjectionData, ValidationReport, _felem_json, validate
from .orbits import Arrangement, ResourceCapExceeded

REPORT_SCHEMA = "patcoh-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INFINITE = 3
EXIT_UNSUPPORTED = 4
EXIT_RESOURCE = 5

_STATUS_EXIT = {
    "finite": EXIT_OK,
    "infinite": EXIT_INFINITE,
    "validation_error": EXIT_VALIDATION,
    "unsupported_codimension": EXIT_UNSUPPORTED,
}


def _validation_json(vrep: ValidationReport) -> dict:
    return {
        "ok": vrep.ok,
        "findings": [
            {"severity": f.severity, "code": f.code, "message": f.message}
            for f in vrep.findings
        ],
    }


def _arrangement_json(arr: Arrangement) -> dict:
    levels = {}
    for level in sorted(arr.levels, reverse=True):
        levels[str(level)] = [
            {
                "id": cls.id,
                "direction": [[_felem_json(x) for x in row] for row in cls.direction],
                "point": [_felem_json(x) for x in cls.point],
                "stabilizer": [[str(v) for v in row] for row in cls.stabilizer.basis],
            }
            for cls in arr.levels[level]
        ]
    return levels


def compute_report(data: ProjectionData, dump_arrangement: bool = False,
                   max_classes: int | None = None) -> tuple[dict, int]:
    """Run validation plus the full pipeline; return (report dict, exit code)."""
    doc: dict = {"schema": REPORT_SCHEMA, "name": data.name}
    doc["field"] = {"kind": "Q"} if data.field.degree == 1 \
        else {"kind": "Qsqrt", "D": data.field.D}
    doc["m"] = data.m
    doc["n"] = data.n
    doc["d"] = data.d
    timings: dict[str, int] = {}
    t0 = time.monotonic()
    vrep = validate(data)
    timings["validate_ms"] = int((time.monotonic() - t0) * 1000)
    doc["nu"] = f"{data.n}/{data.m}" if data.n % data.m else str(data.n // data.m)
    if not vrep.ok:
        doc["status"] = "validation_error"
        doc["validation"] = _validation_json(vrep)
        doc["timing"] = timings
        return doc, EXIT_VALIDATION
    t0 = time.monotonic()
    try:
        rep = analyze(data, max_classes=max_classes)
    except ResourceCapExceeded as exc:
        doc["status"] = "resource_cap_exceeded"
        doc["validation"] = _validation_json(vrep)
        doc["diagnostics"] = {"message": str(exc)}
        doc["timing"] = timings
        return doc, EXIT_RESOURCE
    timings["compute_ms"] = int((time.monotonic() - t0) * 1000)
    doc["status"] = rep.status
    doc["validation"] = _validation_json(vrep)
    doc["finite"] = rep.finite
    doc["L"] = rep.L
    doc["tilde_L1"] = rep.tilde_L1
    doc["e"] = rep.e
    doc["r"] = rep.r
    doc["R"] = rep.R
    doc["D"] = rep.D
    doc["H"] = rep.H
    doc["K"] = list(rep.K) if rep.K is not None else None
    doc["diagnostics"] = rep.diagnostics
    if dump_arrangement and rep.arrangement is not None:
        doc["arrangement"] = _arrangement_json(rep.arrangement)
    doc["timing"] = timings
    return doc, _STATUS_EXIT[rep.status]


def canonical_digest(doc: dict) -> str:
    """SHA-256 of the report without timing or diagnostics.

    Stable across runs, and across presentations of the same data set:
    diagnostics carry witness indices that depend on input ordering."""
    stripped = {k: v for k, v in doc.items() if k not in ("timing", "diagnostics")}
    return hashlib.sha256(
        json.dumps(stripped, sort_keys=False, separators=(",", ":")).encode()
    ).hexdigest()


def render_table(doc: dict) -> str:
    """Human table with one column per derived quantity."""
    if doc["status"] != "finite":
        return f"{doc['name']}: status {doc['status']}"
    d = doc["d"]
    headers = [f"H^{q}" for q in range(d + 1)] + ["L_0", "e"]
    h_cells = [("Z" if h == 1 else f"Z^{h}") for h in doc["H"]]
    cells = h_cells + [str(doc["L"][0]), str(doc["e"])]
    m = doc["m"]
    if m >= 2:
        headers.append("L_1")
        cells.append(str(doc["L"][1]))
    if m == 3:
        headers += ["L~_1", "L_2", "R_1", "R_2"]
        cells += [str(doc["tilde_L1"]), str(doc["L"][2]),
                  str(doc["R"][0]), str(doc["R"][1])]
    if m == 2 and doc["r"]:
        headers.append("r_1")
        cells.append(str(doc["r"][0]))
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    line1 = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    line2 = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return f"{doc['name']}\n{line1}\n{line2}"
