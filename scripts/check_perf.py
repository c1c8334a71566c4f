#!/usr/bin/env python3
"""Perf-smoke gate: check a fresh bench --json report against its committed
baseline. GATES, keyed by the report's "bench" id, holds every gate: a new
gate is one Rule, a new bench one entry. Every bench also gets the ratio
rule: each baselined row present and within --max-regression (2x; CI
runners are noisy) of its baseline. docs/BENCHMARKS.md lists the gates.

    check_perf.py <fresh.json> [<baseline.json>] [--max-regression 2.0]
    check_perf.py --self-test   # CHECKS: a gate that cannot fail is no gate
"""
import argparse
import functools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import namedtuple
from operator import eq, ge, le, lt

OPS = {"<": lt, "<=": le, ">=": ge, "==": eq}
# of:      "row" | ("/", term, term) | ("min", "row", ...) | ("each", field)
# bound:   number | "row" | ("field", name): a field of the subject row
# missing: "fail" | "skip" | the one row whose absence skips (others fail)
Rule = namedtuple("Rule", "of op bound reason name warn missing",
                  defaults=(None, False, "fail"))
WS, NOISE = "websearch/", "forecast is actuating on noise"
GATES = {
    "ext2_fastpath": dict(
        baseline="BENCH_fastpath.json", schema="mdp.bench_fastpath.v1",
        key=("backend", "burst"), defaults={"backend": "synthetic"},
        required=("burst", "ns_per_packet"), value="ns_per_packet", rules=[
            Rule(("/", "synthetic/1", "synthetic/32"), ">=", 1.3,
                 "headline claim not reproduced on this runner",
                 "burst 32 vs 1 speedup", True, "skip"),
            Rule(("/", "synthetic_telem/32", "synthetic/32"), "<=", 2.0,
                 "flight recorder is dominating the hot path",
                 "telem on/off at burst 32", True, "skip"),
            Rule(("/", "loopback/32", "synthetic/32"), "<=", 4.0,
                 "the wire is no longer burst-native",
                 "loopback/synthetic gap at burst 32")]),
    "ext4_tenants": dict(
        baseline="BENCH_tenants.json", schema="mdp.bench_tenants.v1",
        key=("row",), required=("row", "value"), value="value", rules=[
            Rule(r, "<=", ("field", "slo_target_ns"),
                 "tenancy contract broken", missing="skip")
            for r in ("victim_p999_storm_off",
                      "victim_p999_storm_on_admission")] + [
            Rule(("/", "victim_p999_storm_on_no_admission",
                  "victim_p999_storm_on_admission"), ">=", 2.0,
                 "storm too weak to demonstrate contagion",
                 "contagion (no admission / admission)", True, "skip")]),
    "fig11_fct": dict(
        baseline="BENCH_fct.json", schema="mdp.bench_fct.v1",
        key=("workload", "mode"), value="short_p99_fct_ns",
        required=("workload", "mode", "short_p99_fct_ns",
                  "duplicate_byte_fraction"), rules=[
            Rule(("each", "duplicate_byte_fraction"), "<=", 0.25,
                 "replication degenerated into flooding"),
            Rule(("/", WS + "single_path",
                  ("min", WS + "flow_replica", WS + "combined")), ">=", 2.0,
                 "flow replication no longer beats single-path",
                 "websearch short-flow p99 speedup (best replica vs single)",
                 missing=WS + "single_path")]),
    "ext5_forecast": dict(
        baseline="BENCH_forecast.json", schema="mdp.bench_forecast.v1",
        key=("row",), required=("row", "value"), value="value", rules=[
            Rule("breach_windows_predictive", "<", "breach_windows_reactive",
                 "forecast no longer wins the client breach windows A/B"),
            Rule("onset_p999_predictive", "<", "onset_p999_reactive",
                 "forecast no longer wins the storm-onset p99.9 A/B"),
            Rule("prehedge_lead_ticks", ">=", 1,
                 "the pre-hedge must land a tick before the quarantine"),
            Rule("false_positive_fraction_calm", "<=", 0.05, NOISE),
            Rule("false_positive_fraction_storm", "<=", 0.5, NOISE),
            Rule("calm_forecast_actuations", "==", 0,
                 "a clean wire must never trip the forecast")]),
}


def load_doc(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: cannot read ({e.strerror}); regenerate with "
                 f"./build/bench/<bench> --json {path}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON ({e})")
    if doc.get("bench") not in GATES:
        sys.exit(f"{path}: not a supported bench report (bench="
                 f"{doc.get('bench')!r}, want one of {', '.join(GATES)})")
    return doc


def load_rows(doc, path, gate):
    """{label: row} of the gate's schema, in key order."""
    rows, schema = {}, gate["schema"]
    for run in doc.get("runs", []):
        rep = {**gate.get("defaults", {}), **run.get("report", {})}
        if rep.get("schema") != schema:
            continue
        lacking = [f for f in gate["required"] if f not in rep]
        if lacking:
            sys.exit(f"{path}: {schema} row missing {'/'.join(lacking)}: "
                     f"{sorted(rep)}")
        rows[tuple(rep[k] for k in gate["key"])] = rep
    if not rows:
        sys.exit(f"{path}: no {schema} rows")
    return {"/".join(map(str, k)): rows[k] for k in sorted(rows)}


def gate_ratios(fresh, base, value, max_regression):
    """The ratio rule; True when it failed."""
    missing = [k for k in base if k not in fresh]
    if missing:
        print(f"FAIL: baseline rows missing from fresh run: "
              f"{', '.join(missing)} (regenerate the baseline?)")
    failed = bool(missing)
    for k in fresh:
        if k not in base:
            print(f"note: {k} is new in the fresh run (not gated)")
            continue
        fv, bv = float(fresh[k][value]), float(base[k][value])
        ratio = fv / bv if bv else math.inf if fv else 1.0
        bad = ratio > max_regression
        failed |= bad
        verdict = f"FAIL (> {max_regression}x regression)" if bad else "ok"
        print(f"{k:>34}: baseline {bv:10.1f}, fresh {fv:10.1f}, "
              f"ratio {ratio:.2f}x [{verdict}]")
    return failed


def term(t, rows, field):
    if isinstance(t, (int, float)):
        return float(t)
    if isinstance(t, str):
        if t not in rows or field not in rows[t]:
            raise LookupError(t if t not in rows else f"{t}.{field}")
        return float(rows[t][field])
    if t[0] == "min":
        present = [r for r in t[1:] if r in rows]
        if not present:
            raise LookupError(" and ".join(t[1:]))
        return min(term(r, rows, field) for r in present)
    num, den = term(t[1], rows, field), term(t[2], rows, field)
    return num / den if den else math.inf


def apply_rule(rule, rows, value):
    """Print one verdict line per subject; True when the rule FAILs."""
    subjects = [(rule.name or rule.of, rows, rule.of, value)]
    if rule.of[0] == "each":
        subjects = [(f"{k} {rule.of[1]}", {k: rows[k]}, k, rule.of[1])
                    for k in rows]
    sev, failed = "WARNING" if rule.warn else "FAIL", False
    for name, view, of, field in subjects:
        try:
            v, b = term(of, view, field), rule.bound
            b = term(of, view, b[1]) if isinstance(b, tuple) else \
                term(b, view, field)
        except LookupError as m:
            skip = rule.missing in ("skip", str(m))
            print(f"{name}: {m} missing from the fresh run ["
                  f"{'skipped' if skip else f'{sev}: {rule.reason}'}]")
            failed |= not (skip or rule.warn)
            continue
        ok = OPS[rule.op](v, b)
        print(f"{name}: {v:.3f} {rule.op} {b:.3f} "
              f"[{'ok' if ok else f'{sev}: {rule.reason}'}]")
        failed |= not (ok or rule.warn)
    return failed


def report(bench, base, edits=None):
    """Report text: `base` {label: value | fields} + `edits` (None drops)."""
    gate, runs = GATES[bench], []
    for label, v in {**base, **(edits or {})}.items():
        if v is not None:
            keys = (int(x) if x.isdigit() else x for x in label.split("/"))
            runs.append({"report": {"schema": gate["schema"],
                                    **dict(zip(gate["key"], keys)),
                                    **(v if isinstance(v, dict) else
                                       {gate["value"]: v})}})
    return json.dumps({"bench": bench, "runs": runs})


FP = {"synthetic/1": 100.0, "synthetic/32": 50.0, "synthetic_telem/32": 55.0,
      "loopback/32": 150.0}
TN = {"flowtable_insert_1m": 100.0, **{
    f"victim_p999_storm_on_{r}": {"value": v, "slo_target_ns": 50000}
    for r, v in (("admission", 2000), ("no_admission", 4000000))}}
FCT = {WS + m: {"short_p99_fct_ns": p, "duplicate_byte_fraction": d}
       for m, p, d in (("single_path", 1e6, 0.0), ("flow_replica", 1e5, 0.05),
                       ("combined", 4e5, 0.20))}
FC = {"breach_windows_reactive": 2, "breach_windows_predictive": 0,
      "onset_p999_reactive": 12000, "onset_p999_predictive": 2000,
      "prehedge_lead_ticks": 30, "false_positive_fraction_storm": 0.33,
      "false_positive_fraction_calm": 0.0, "calm_forecast_actuations": 0}
fp, tn, fct, fc = (functools.partial(report, bench, base)
                   for bench, base in zip(GATES, (FP, TN, FCT, FC)))
REPL, SAME = (WS + "flow_replica", WS + "combined"), "baseline = fresh"
ONLY1 = fp({k: None for k in FP if k != "synthetic/1"})
BREACH = {"value": 80000, "slo_target_ns": 50000}
FLOOD = {"short_p99_fct_ns": 4e5, "duplicate_byte_fraction": 0.6}
SLOW = {r: {**FCT[r], "short_p99_fct_ns": 9e5} for r in REPL}
# (check, fresh text (None: no file), baseline text, exit code, output text)
CHECKS = [
    ("identical rows pass", fp(), fp(), 0, "synthetic/32: baseline"),
    ("telem on/off ratio reported", fp(), fp(), 0, "1.100 <= 2.000 [ok]"),
    ("loopback gap reported", fp(), fp(), 0, "3.000 <= 4.000 [ok]"),
    ("3x regression fails", fp({"synthetic/32": 150}), fp(), 1, "[FAIL (>"),
    ("missing baseline row fails", ONLY1, fp(), 1, "FAIL: baseline rows"),
    ("new row noted, not gated", fp({"loopback/64": 80}), fp(), 0, "is new"),
    ("loopback gap fails", fp({"loopback/32": 250}), SAME, 1, "[FAIL: the"),
    ("missing loopback row fails", fp({"loopback/32": None}), SAME, 1,
     "loopback/32 missing from the fresh run [FAIL"),
    ("unreadable file fails", None, fp(), 1, "cannot read"),
    ("corrupt JSON fails", "{nope", fp(), 1, "not valid JSON"),
    ("foreign report fails", '{"bench": "other"}', fp(), 1, "not a supported"),
    ("row-less report fails", '{"bench": "ext2_fastpath"}', fp(), 1, "no mdp"),
    ("tenant rows pass", tn(), tn(), 0, ("<= 50000.000 [ok]", "2.000 [ok]")),
    ("tenant regression fails", tn({"flowtable_insert_1m": 300}), tn(), 1,
     "[FAIL (>"),
    ("tenant SLO breach fails", tn({"victim_p999_storm_on_admission": BREACH}),
     SAME, 1, "[FAIL: tenancy contract broken]"),
    ("bench mismatch fails", tn(), fp(), 1, "bench mismatch"),
    ("fct rows pass", fct(), fct(), 0, "10.000 >= 2.000 [ok]"),
    ("fct duplicate-byte flood fails", fct({WS + "combined": FLOOD}), fct(), 1,
     "0.600 <= 0.250 [FAIL"),
    ("fct lost speedup fails", fct(SLOW), SAME, 1, "[FAIL: flow replication"),
    ("fct missing replica rows fails", fct(dict.fromkeys(REPL)), SAME, 1,
     "websearch/combined missing from the fresh run [FAIL"),
    ("forecast rows pass", fc(), fc(), 0, ("< 2.000 [ok]", "30.000 >= 1.000")),
    ("forecast lost A/B win fails", fc({"breach_windows_predictive": 2}), SAME,
     1, "[FAIL: forecast no longer wins the client breach windows A/B]"),
    ("forecast calm FP ceiling fails", fc({"false_positive_fraction_calm":
     0.2}), SAME, 1, "0.200 <= 0.050 [FAIL: forecast is actuating on noise]"),
    ("forecast calm actuation fails", fc({"calm_forecast_actuations": 3}),
     SAME, 1, "[FAIL: a clean wire must never trip the forecast]"),
]


def self_test():
    """Run CHECKS against tempfile reports; 0 when every check holds."""
    failures = []
    with tempfile.TemporaryDirectory() as d:
        for i, (check, fresh, base, want, texts) in enumerate(CHECKS):
            paths = [os.path.join(d, f"{i}{side}.json") for side in "fb"]
            for path, text in zip(paths, (fresh, fresh if base is SAME
                                          else base)):
                if text is not None:
                    pathlib.Path(path).write_text(text)
            run = subprocess.run([sys.executable, __file__, *paths],
                                 capture_output=True, text=True)
            code, out = run.returncode, run.stdout + run.stderr
            texts = (texts,) if isinstance(texts, str) else texts
            if code != want or not all(t in out for t in texts) or \
                    (want == 0 and "FAIL" in out):
                failures.append(check)
                print(f"self-test FAIL: {check} (exit {code}, want {want})"
                      f"\n--- gate output ---\n{out}")
    print(f"self-test: {len(CHECKS) - len(failures)}/{len(CHECKS)} checks "
          f"passed")
    return 1 if failures else 0


def main(argv=None):
    """The gate's exit code: 1 when a FAIL verdict was printed."""
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", nargs="?", help="fresh bench --json report")
    ap.add_argument("baseline", nargs="?", help="default: the bench's own")
    ap.add_argument("--max-regression", type=float, default=2.0)
    ap.add_argument("--self-test", action="store_true", help="run CHECKS")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.fresh:
        ap.error("fresh report path required (or --self-test)")
    fresh_doc = load_doc(args.fresh)
    gate = GATES[fresh_doc["bench"]]
    baseline_path = args.baseline or gate["baseline"]
    base_doc = load_doc(baseline_path)
    if base_doc["bench"] != fresh_doc["bench"]:
        sys.exit(f"bench mismatch: fresh is {fresh_doc['bench']}, baseline "
                 f"{baseline_path} is {base_doc['bench']}")
    fresh = load_rows(fresh_doc, args.fresh, gate)
    failed = gate_ratios(fresh, load_rows(base_doc, baseline_path, gate),
                         gate["value"], args.max_regression)
    for rule in gate["rules"]:
        failed |= apply_rule(rule, fresh, gate["value"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
