#!/usr/bin/env python3
"""Strict parser for TraceWeaver run reports (--report-json output).

Validates the stable schema ``traceweaver.run_report.v7`` produced by
``src/obs/run_report.cc`` and prints a one-line digest per section.
The schema is the committed full report golden,
``tests/golden/run_report_v7.json``, which obs_test compares byte for
byte with the C++ writer: a report must carry every section and key the
golden carries, counts as non-negative integers, fractions as numbers,
and each list row with the keys of the golden's rows. Unknown or missing
schema strings are a hard error: downstream tooling must not silently
accept a report whose layout it does not understand.

Usage:
    parse_report.py <report.json>     # validate + digest
    parse_report.py --self-test       # run embedded accept/reject checks

Exit status: 0 on a valid v7 report (or passing self-test), 1 otherwise.
"""

import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "tests", "golden", "run_report_v7.json")
with open(GOLDEN_PATH, "r", encoding="utf-8") as _fh:
    GOLDEN_TEXT = _fh.read()
GOLDEN = json.loads(GOLDEN_TEXT)
SCHEMA = GOLDEN["schema"]


class ReportError(Exception):
    """A report that must be rejected, with a reason."""


def check_shape(value, golden, where):
    """Raises ReportError unless `value` has the keys and value types of
    `golden` (recursively); `where` names `value` in messages."""
    if isinstance(golden, dict):
        if not isinstance(value, dict):
            raise ReportError("%s is not an object" % where)
        for key, want in golden.items():
            path = key if where == "report" else where + "." + key
            if key not in value:
                raise ReportError("missing required field %r" % path)
            check_shape(value[key], want, path)
    elif isinstance(golden, list):
        if not isinstance(value, list):
            raise ReportError("%s is not an array" % where)
        for row in value:
            check_shape(row, golden[0], where + "[]")
    elif isinstance(golden, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ReportError("%s must be a number, got %r" % (where, value))
    elif isinstance(golden, int):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ReportError("%s must be a non-negative integer, got %r"
                              % (where, value))
    elif not isinstance(value, str):
        raise ReportError("%s must be a string, got %r" % (where, value))


def parse_report(text):
    """Parses one run report; returns the dict or raises ReportError."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        raise ReportError("not valid JSON: %s" % err)
    if not isinstance(report, dict):
        raise ReportError("top level is not a JSON object")

    schema = report.get("schema")
    if schema is None:
        raise ReportError("missing required 'schema' field")
    if schema != SCHEMA:
        raise ReportError(
            "unknown schema %r (this parser understands only %r)"
            % (schema, SCHEMA)
        )
    check_shape(report, GOLDEN, "report")

    # Rollup invariants the shape cannot express.
    prov = report["provenance"]
    for row in prov["events"]:
        if row["count"] < 1:
            raise ReportError(
                "provenance event %r must carry a positive count, got %r"
                % (row["type"], row["count"])
            )
    recorded = sum(row["count"] for row in prov["events"])
    if recorded != prov["recorded"]:
        raise ReportError(
            "provenance.recorded=%d does not match the event-row sum %d"
            % (prov["recorded"], recorded)
        )
    sampler = report["sampler"]
    accounted = (
        sampler["shed"] + sampler["kept_interesting"] + sampler["kept_random"]
    )
    if accounted != sampler["considered"]:
        raise ReportError(
            "sampler.considered=%d does not match shed+kept sum %d"
            % (sampler["considered"], accounted)
        )
    return report


def digest(report):
    """One line per interesting section, for terminals."""
    lines = []
    run = report["run"]
    lines.append(
        "run: %s spans, %s containers, %s threads"
        % (run.get("spans"), run.get("containers"), run.get("threads"))
    )
    ingest = report["ingest"]
    lines.append(
        "ingest: %s in, %s accepted, %s repaired, %s quarantined"
        % (
            ingest.get("input"),
            ingest.get("accepted"),
            ingest.get("repaired"),
            ingest.get("quarantined"),
        )
    )
    prov = report["provenance"]
    rows = ", ".join(
        "%s=%d" % (row["type"], row["count"]) for row in prov["events"]
    )
    lines.append(
        "provenance: %d recorded, %d dropped, %d pending%s"
        % (
            prov["recorded"],
            prov["dropped"],
            prov["pending_events"],
            " (%s)" % rows if rows else "",
        )
    )
    sampler = report["sampler"]
    if sampler["considered"]:
        lines.append(
            "sampler: %d considered, %d kept interesting, %d kept by coin,"
            " %d shed (%d spans)"
            % (
                sampler["considered"],
                sampler["kept_interesting"],
                sampler["kept_random"],
                sampler["shed"],
                sampler["shed_spans"],
            )
        )
    return "\n".join(lines)


def self_test():
    failures = []

    def edited(edit):
        report = json.loads(GOLDEN_TEXT)
        edit(report)
        return json.dumps(report)

    def no_rows(report):
        report["services"] = []
        report["provenance"]["events"] = []
        report["provenance"]["recorded"] = 0

    # (name, report text, None to accept or a substring of the reason).
    cases = [("golden", GOLDEN_TEXT, None),
             ("no_rows", edited(no_rows), None),
             ("not_json", "{nope", "not valid JSON")]
    for name, edit, needle in (
            ("older_schema",
             lambda r: r.update(schema="traceweaver.run_report.v6"),
             "unknown schema"),
            ("future_schema",
             lambda r: r.update(schema="traceweaver.run_report.v99"),
             "unknown schema"),
            ("wrong_kind", lambda r: r.update(schema="traceweaver.trace.v1"),
             "unknown schema"),
            ("missing_schema", lambda r: r.pop("schema"), "missing required"),
            ("missing_provenance", lambda r: r.pop("provenance"),
             "missing required"),
            ("missing_sampler", lambda r: r.pop("sampler"),
             "missing required"),
            ("missing_nested_key", lambda r: r["online"]["late"].pop("spans"),
             "'online.late.spans'"),
            ("malformed_row", lambda r: r["stages"][3].pop("cpu_ns"),
             "'stages[].cpu_ns'"),
            ("negative_count", lambda r: r["ingest"].update(input=-1),
             "non-negative integer"),
            ("string_count", lambda r: r["mwis"].update(solves="7"),
             "mwis.solves must be a non-negative integer"),
            ("string_ratio",
             lambda r: r["mwis"].update(fallback_rate="0.5"),
             "mwis.fallback_rate must be a number"),
            ("bad_rollup",
             lambda r: r["provenance"].update(recorded=7), "does not match"),
            ("unaccounted_sampler",
             lambda r: r["sampler"].update(shed=0), "shed+kept sum")):
        cases.append((name, edited(edit), needle))

    for name, text, needle in cases:
        try:
            parse_report(text)
            if needle is not None:
                failures.append("%s: unexpectedly accepted" % name)
        except ReportError as err:
            if needle is None or needle not in str(err):
                failures.append("%s: rejected: %s" % (name, err))

    if failures:
        for f in failures:
            print("FAIL %s" % f, file=sys.stderr)
        return 1
    print("parse_report self-test: %d checks passed" % len(cases))
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        with open(argv[1], "r", encoding="utf-8") as fh:
            report = parse_report(fh.read())
    except OSError as err:
        print("parse_report: %s" % err, file=sys.stderr)
        return 1
    except ReportError as err:
        print("parse_report: rejected: %s" % err, file=sys.stderr)
        return 1
    print(digest(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
