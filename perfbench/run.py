"""Time-to-verified-rank-table benchmark for patcoh.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from `src/`; every
input goes through the public CLI entry `patcoh.cli.main(["compute", <file>,
"--json"])` in this process, single-threaded, and every answer is checked.
A pass runs all of the workload's inputs once; passes repeat until
`--seconds` have gone by, so a run measures at least that long.

`--trace 0` prints the end-to-end metrics: `setup_s` (median over fresh
processes that import patcoh and build the catalog), `run_norm_s` and
`cpu_norm_s` (median over passes of the pass's wall and CPU time, scaled to
reference host speed by the reference slices below; the raw `run_s` and
`cpu_s` are printed too) and `peak_rss_mib`.  `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics of `spans.py`.  The last
line of standard output is one JSON object; the lines before it are the same
figures for people, with quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs as gen
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINNED = Path(__file__).resolve().parent / "pinned.json"
SETUP_RUNS = 21
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import patcoh\n"
    "patcoh.catalog.catalog()\n"
    "print(time.perf_counter() - t0)\n"
)

# The host's speed drifts by up to 2x in bursts of seconds, and CPU time
# drifts with it.  A fixed reference slice of exact-rational and dict work
# runs between inputs; it sees the same bursts, so dividing each input's
# time by the mean of the slices around it cancels most of the drift.
# REF_SLICE_S is a slice's time on the quiet host that produced the first
# record (2-vCPU Xeon KVM guest, Python 3.11), so normalized seconds read
# as seconds on that host.
REF_SLICE_S = 0.031
SLICE_CALLS = 10

# report fields that make up the answer; validation messages, timing and
# diagnostics are left out so rewording them does not change the digest
ANSWER_KEYS = ("status", "field", "m", "n", "d", "nu", "finite", "L", "tilde_L1",
               "e", "r", "R", "D", "H", "K")
GOLDEN_KEYS = ("status", "H", "L", "e", "tilde_L1")


def answer_digest(doc: dict) -> str:
    val = doc.get("validation") or {}
    errors = sorted(f["code"] for f in val.get("findings", []) if f["severity"] == "error")
    core = {k: doc.get(k) for k in ANSWER_KEYS}
    core["validation"] = [val.get("ok"), errors]
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def load_program():
    """Import patcoh from the checkout's sources; exit 2 if they are absent."""
    if not (SRC / "patcoh" / "__init__.py").is_file():
        print(f"perfbench: no patcoh package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import patcoh.catalog
    import patcoh.cli
    import patcoh.report
    return patcoh


def run_cli(patcoh, path: Path, max_classes: int | None):
    """(exit code, parsed report or None, error text or None)."""
    if max_classes is None:
        os.environ.pop("PATCOH_MAX_CLASSES", None)
    else:
        os.environ["PATCOH_MAX_CLASSES"] = str(max_classes)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = patcoh.cli.main(["compute", str(path), "--json"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raise is a failed input, not a crash of the run
        return None, None, f"raised {type(exc).__name__}: {exc}"
    finally:
        os.environ.pop("PATCOH_MAX_CLASSES", None)
    try:
        return code, json.loads(out.getvalue()), None
    except json.JSONDecodeError:
        return code, None, f"no JSON report (stderr: {err.getvalue().strip()!r})"


def check(patcoh, inp, code, doc, pinned, digests) -> list[str]:
    """What is wrong with one answer; empty when it is right.  `digests`
    holds the canonical digest of each input id seen so far in the run."""
    want = pinned[inp.base]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit {code}, expected {want['exit']}")
    if doc is None:
        return problems + ["no report"]
    if answer_digest(doc) != want["answer"]:
        problems.append("answer digest differs from the pinned one")
    if inp.base in patcoh.catalog.names():
        expected = patcoh.catalog.build(inp.base).expected
        for key in GOLDEN_KEYS:
            if key in expected and doc.get(key) != expected[key]:
                problems.append(f"{key} {doc.get(key)} != golden {expected[key]}")
        if "R" in expected and (doc.get("R") or [])[:2] != expected["R"]:
            problems.append(f"R {doc.get('R')} != golden {expected['R']}")
        if "K" in expected and doc.get("K") != list(expected["K"]):
            problems.append(f"K {doc.get('K')} != golden {list(expected['K'])}")
    elif doc.get("status") == "finite":
        if doc["H"][0] != 1:
            problems.append(f"H^0 = {doc['H'][0]}, expected 1")
        if sum(doc["K"]) != sum(doc["D"]):
            problems.append("rank K_0 + rank K_1 != sum of D_p")
    digest = patcoh.report.canonical_digest(doc)
    if digests.setdefault(inp.id, digest) != digest:
        problems.append("canonical digest differs from an earlier pass")
    if inp.same_as is not None and digest != digests.get(inp.same_as):
        problems.append(f"canonical digest differs from {inp.same_as}")
    return problems


def _reference_work():
    n = 9
    a = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    d: dict = {}
    for i in range(3000):
        key = (i % 17, i % 5, i * 3)
        d[key] = d.get(key, 0) + (i * i) % 97


def reference_slice() -> tuple[float, float]:
    """(wall s, cpu s) of one reference slice.  The garbage collector is
    off meanwhile, so objects the program keeps alive do not slow it."""
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(SLICE_CALLS):
            _reference_work()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        gc.enable()


def run_pass(patcoh, items, pinned, digests, tracer=None):
    """One pass over the inputs: ((wall s, cpu s, normalized wall s,
    normalized cpu s), failed input ids).  Reference slices are not timed."""
    failed = []
    times = [0.0, 0.0, 0.0, 0.0]
    before = reference_slice()
    for inp, path in items:
        if tracer is not None:
            tracer.begin_input(inp.id)
        t0, c0 = time.perf_counter(), time.process_time()
        code, doc, err = run_cli(patcoh, path, inp.max_classes)
        problems = [err] if err else check(patcoh, inp, code, doc, pinned, digests)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if problems:
            failed.append(inp.id)
            print(f"FAIL {inp.id}: {'; '.join(problems)}", file=sys.stderr)
        after = reference_slice()
        times[0] += wall
        times[1] += cpu
        times[2] += wall * REF_SLICE_S * 2 / (before[0] + after[0])
        times[3] += cpu * REF_SLICE_S * 2 / (before[1] + after[1])
        before = after
    return tuple(times), failed


def write_inputs(workload: str, seed: int):
    """Generate the pass's inputs (twice, to check they are reproducible)
    and write each as a patcoh/1 file."""
    made = gen.make_inputs(workload, seed)
    if made != gen.make_inputs(workload, seed):
        raise RuntimeError("input generation is not deterministic")
    folder = WORK / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    for old in folder.glob("*.json"):
        old.unlink()
    items = []
    for i, inp in enumerate(made):
        path = folder / f"{i:02d}-{inp.id.replace('/', '.')}.json"
        path.write_text(inp.text)
        items.append((inp, path))
    return items


def measure_setup() -> list[float]:
    """Import patcoh and build the catalog in fresh processes."""
    times = []
    for _ in range(SETUP_RUNS):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def measure(patcoh, items, pinned, seconds, trace):
    """Repeat passes until `seconds` have gone by; with tracing, untraced
    and traced passes alternate and at least one of each runs."""
    tracer = Tracer() if trace else None
    plain, traced, failed, digests = [], [], 0, {}
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        try:
            times, bad = run_pass(patcoh, items, pinned, digests,
                                  tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(times)
        failed += len(bad)
        if (not trace or traced) and time.perf_counter() - start >= seconds:
            return plain, traced, failed, tracer


def layer_metrics(tracer, passes: int, overhead: float):
    """(metric -> (value, unit), per-span summary, per-input self times)."""
    s, by_input = tracer.summary()

    def total(name):
        return s.get(name, {}).get("total_s", 0.0) / passes

    def own(name):
        return s.get(name, {}).get("self_s", 0.0) / passes

    def calls(name):
        return s.get(name, {}).get("calls", 0) // passes

    def count(name):
        return s.get(name, {}).get("count", 0) // passes

    same_calls, hits = calls("orbits.same_orbit"), count("orbits.same_orbit")
    candidates, accepted = count("orbits.classify_pair"), count("orbits.build_level")
    values = {
        "model.parse_s": (total("model.parse"), "s"),
        "model.validate_s": (total("model.validate"), "s"),
        "orbits.same_orbit_calls": (same_calls, "count"),
        "orbits.same_orbit_hits": (hits, "count"),
        "orbits.same_orbit_s": (total("orbits.same_orbit"), "s"),
        "orbits.same_orbit_self_s": (own("orbits.same_orbit"), "s"),
        "orbits.same_orbit_hit_ratio": (hits / same_calls if same_calls else 0.0, "ratio"),
        "orbits.classify_pair_calls": (calls("orbits.classify_pair"), "count"),
        "orbits.classify_pair_s": (total("orbits.classify_pair"), "s"),
        "orbits.classify_pair_self_s": (own("orbits.classify_pair"), "s"),
        "orbits.candidates": (candidates, "count"),
        "orbits.classes_accepted": (accepted, "count"),
        "orbits.accept_ratio": (accepted / candidates if candidates else 0.0, "ratio"),
        "orbits.build_level_self_s": (own("orbits.build_level"), "s"),
        "orbits.hyperplane_classes_s": (total("orbits.hyperplane_classes"), "s"),
        "orbits.level0_s": (total("orbits.level0"), "s"),
        "orbits.relative_levels_calls": (calls("orbits.relative_levels"), "count"),
        "orbits.relative_levels_s": (total("orbits.relative_levels"), "s"),
        "orbits.stabilizer_s": (total("orbits.stabilizer"), "s"),
        "invariants.euler_s": (total("invariants.euler"), "s"),
        "invariants.wedge_s": (total("invariants.wedge"), "s"),
        "invariants.formulas_s": (total("invariants.formulas"), "s"),
        "linalg.coset_reps_calls": (calls("linalg.coset_reps"), "count"),
        "linalg.coset_reps_s": (total("linalg.coset_reps"), "s"),
        "linalg.coset_reps_self_s": (own("linalg.coset_reps"), "s"),
        "linalg.coset_reps_out": (count("linalg.coset_reps"), "count"),
        "linalg.snf_calls": (calls("linalg.snf"), "count"),
        "linalg.snf_s": (total("linalg.snf"), "s"),
        "linalg.integer_kernel_calls": (calls("linalg.integer_kernel"), "count"),
        "linalg.integer_kernel_s": (total("linalg.integer_kernel"), "s"),
        "linalg.hnf_calls": (calls("linalg.hnf"), "count"),
        "linalg.hnf_s": (total("linalg.hnf"), "s"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "linalg.rref_s": (total("linalg.rref"), "s"),
        "report.compute_report_s": (total("report.compute_report"), "s"),
        "report.canonical_digest_s": (total("report.canonical_digest"), "s"),
        "trace.spans": (len(tracer) // passes, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return values, s, by_input


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    patcoh = load_program()
    pinned = json.loads(PINNED.read_text())
    items = write_inputs(args.workload, args.seed)
    setup = [] if args.trace else measure_setup()
    plain, traced, failed, tracer = measure(patcoh, items, pinned, args.seconds,
                                            args.trace)
    attempted = len(items) * (len(plain) + len(traced))
    walls, cpus, norm_walls, norm_cpus = (list(col) for col in zip(*plain))
    print(f"workload {args.workload}  seed {args.seed}  {len(items)} inputs  "
          f"{len(plain)} untraced + {len(traced)} traced passes")
    print(f"error_ratio   {failed / attempted:.4f} ratio  ({failed}/{attempted})")
    if args.trace:
        pass_s = statistics.median(t[0] for t in traced)
        overhead = statistics.median(t[2] for t in traced) / statistics.median(norm_walls)
        values, summary, by_input = layer_metrics(tracer, len(traced), overhead)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}")
        print(f"traced pass {pass_s:.4f} s; self time by span, share of the pass:")
        for name, rec in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
            if rec["calls"]:
                own = rec["self_s"] / len(traced)
                print(f"  {name:32s} self {own:10.4f} s  {own / pass_s:6.1%}  "
                      f"calls {rec['calls'] // len(traced)}")
        print("largest self time per input:")
        for input_id, per in by_input.items():
            name, own = max(per.items(), key=lambda kv: kv[1])
            print(f"  {input_id:32s} {name:24s} {own / sum(per.values()):6.1%} "
                  f"of {sum(per.values()) / len(traced):.4f} s")
        for name, (val, unit) in values.items():
            print(f"{name:32s} {val:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows = [("setup_s", setup), ("run_s", walls), ("cpu_s", cpus),
                ("run_norm_s", norm_walls), ("cpu_norm_s", norm_cpus)]
        for name, vals in rows:
            print(f"{name:13s} {statistics.median(vals):.4f} s  {spread(vals)}")
        print(f"peak_rss_mib  {rss:.1f} MiB")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_norm_s": {"value": statistics.median(norm_walls), "unit": "s"},
            "cpu_norm_s": {"value": statistics.median(norm_cpus), "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
