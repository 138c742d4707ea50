"""Deterministic report assembly: fixed key order, string-encoded rationals,
and a canonical digest that excludes timing."""

from __future__ import annotations

import json
import time

from .invariants import analyze
from .model import ProjectionData, field_json, validate, vector_json
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
    "resource_cap_exceeded": EXIT_RESOURCE,
}

# the InvariantReport fields a finished run reports, in report order
_RESULT_KEYS = ("finite", "L", "tilde_L1", "e", "r", "R", "D", "H", "K", "diagnostics")


def _arrangement_json(arr: Arrangement) -> dict:
    # a direction's field rref rows are its entry's columns delta j over q
    d, levels = arr.data.field.degree, {}
    for level in sorted(arr.levels, reverse=True):
        levels[str(level)] = [
            {
                "id": cls.id,
                "direction": [vector_json(col, d, cls.entry.q) for col in cls.entry.cols[::d]],
                "point": vector_json(cls.res[0][0], d, cls.res[1]),
                "stabilizer": [[str(v) for v in row] for row in cls.stabilizer.basis],
            }
            for cls in arr.levels[level]
        ]
    return levels


def compute_report(data: ProjectionData, dump_arrangement: bool = False,
                   max_classes: int | None = None) -> tuple[dict, int]:
    """Run validation plus the full pipeline; return (report dict, exit code).

    The header (schema .. nu) comes first, then status and validation; a
    run that got past validation adds the `InvariantReport` keys by name
    (or, past the class cap, only diagnostics), and timing comes last.
    The digest hashes keys in this order."""
    n, m = data.n, data.m
    doc = {"schema": REPORT_SCHEMA, "name": data.name, "field": field_json(data.field),
           "m": m, "n": n, "d": data.d, "nu": f"{n}/{m}" if n % m else str(n // m)}
    t0 = time.monotonic()
    vrep = validate(data)
    timing = {"validate_ms": int((time.monotonic() - t0) * 1000)}
    status, result = "validation_error", {}
    if vrep.ok:
        t0 = time.monotonic()
        try:
            rep = analyze(data, max_classes=max_classes)
        except ResourceCapExceeded as exc:
            status, result = "resource_cap_exceeded", {"diagnostics": {"message": str(exc)}}
        else:
            timing["compute_ms"] = int((time.monotonic() - t0) * 1000)
            status = rep.status
            result = {key: getattr(rep, key) for key in _RESULT_KEYS}
            result["K"] = rep.K and list(rep.K)
            if dump_arrangement and rep.arrangement is not None:
                result["arrangement"] = _arrangement_json(rep.arrangement)
    validation = {"ok": vrep.ok, "findings": [f._asdict() for f in vrep.findings]}
    doc.update(status=status, validation=validation, **result, timing=timing)
    return doc, _STATUS_EXIT[status]


def canonical_digest(doc: dict) -> str:
    """SHA-256 of the report without timing or diagnostics.

    Stable across runs, and across presentations of the same data set:
    diagnostics carry witness indices that depend on input ordering."""
    import hashlib  # only digests need it, and no command takes one

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
