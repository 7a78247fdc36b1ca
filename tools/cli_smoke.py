#!/usr/bin/env python3
"""End-to-end smoke test of the traceweaver CLI, run as a ctest.

Usage:
    cli_smoke.py <path to the traceweaver binary>

Drives every user-facing command once on a small simulated
HotelReservation population, in a temporary directory:

 1. simulate + infer-graph;
 2. reconstruct, evaluate, explain <root span id> and export-jaeger, each
    of which must exit 0 with non-empty stdout;
 3. sort-spans, then serve with a store, checkpoints and the tail sampler
    to EOF; the run reports of reconstruct and serve (--report-json)
    must pass tools/parse_report.py;
 4. serve --resume on the same files, which must exit 0 and report the
    weaver checkpoint, the committer state and the sampler state restored,
    and must exit 1 naming the file once one of the three is missing;
    serve on a stream with one malformed line, whose run report must count
    it in ingest.parse_errors and every served span in ingest.input;
 5. query (summaries, one trace, --full) and provenance against the
    store: each record printed must be the stored line of its segment
    file, byte for byte, and each provenance document the events of that
    line;
 6. serve with a window of zero or a non-numeric window, with a
    missing checkpoint directory, or with --resume and no checkpoint
    directory, each of which must be rejected with exit status 2 (never
    loop, never run without checkpoints);
 7. serve with a malformed numeric flag (a sign on an unsigned flag, a
    non-numeric rate, an exponent on an integer), each of which must be
    rejected with exit status 2 and "<flag>: expected <type>" on stderr
    instead of running with a silently wrapped or truncated value;
 8. every command with a malformed positional number (simulate rps,
    seconds and seed, replay requests_per_root, the span or trace id of
    explain, query and provenance), each of which must be rejected the
    same way, naming the argument ("seed: expected unsigned integer");
 9. every command with an argument after its last positional (a flag
    placed last, say), which must be rejected with exit status 2 naming
    it instead of being ignored;
10. an unknown flag, a flag the command does not read, and a flag value
    out of its range, each of which must be rejected with exit status 2
    naming the flag instead of being ignored or reset.

Exit status is 0 when every step passed, 1 on the first failure (the
failing command, its exit status and its stderr are printed).
"""

import json
import os
import subprocess
import sys
import tempfile


def run(cli, args, stdout_path=None, want_stdout=True):
    """Runs `cli args`; returns (stdout, stderr), or exits when the command
    fails or (with `want_stdout`) prints nothing."""
    out = open(stdout_path, "w") if stdout_path else subprocess.PIPE
    try:
        proc = subprocess.run([cli] + args, stdout=out,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        if stdout_path:
            out.close()
    stdout = open(stdout_path).read() if stdout_path else proc.stdout
    if proc.returncode != 0 or (want_stdout and not stdout.strip()):
        sys.stderr.write("FAIL: %s %s\n  exit %d, %d stdout bytes\n%s" % (
            os.path.basename(cli), " ".join(args), proc.returncode,
            len(stdout), proc.stderr))
        sys.exit(1)
    return stdout, proc.stderr


def expect_exit(cli, args, status, stderr_has=""):
    """Runs `cli args` with a short timeout (subprocess.run kills a hung
    child) and exits unless it terminates with `status` and its stderr
    contains `stderr_has`."""
    try:
        proc = subprocess.run([cli] + args, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        sys.stderr.write("FAIL: %s %s\n  still running after 10 s\n" % (
            os.path.basename(cli), " ".join(args)))
        sys.exit(1)
    if proc.returncode != status or stderr_has not in proc.stderr:
        sys.stderr.write("FAIL: %s %s\n  exit %d, want %d and %r\n%s" % (
            os.path.basename(cli), " ".join(args), proc.returncode, status,
            stderr_has, proc.stderr))
        sys.exit(1)


def stored_lines(store):
    """Every record line of the store's segment files (header and footer
    dropped), as bytes, in (start, trace) order."""
    lines = []
    for name in sorted(os.listdir(store)):
        if name.startswith("segment-") and name.endswith(".jsonl"):
            with open(os.path.join(store, name), "rb") as f:
                lines += f.read().split(b"\n")[1:-2]
    records = [(json.loads(line), line) for line in lines]
    records.sort(key=lambda r: (r[0]["start"], r[0]["trace"]))
    return [(r["trace"], r, line) for r, line in records]


def check_stored_bytes(cli, store):
    """`query --full`, `query <id>` and `provenance <id>` print the stored
    bytes; returns a failure message or None."""
    def output(args):
        proc = subprocess.run([cli] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        return proc.stdout if proc.returncode == 0 else None

    records = stored_lines(store)
    if not records:
        return "the store holds no records"
    if output(["query", "--full", store]) != b"".join(
            line + b"\n" for _, _, line in records):
        return "query --full did not print the stored lines"
    key = b',"provenance":['
    for trace, record, line in records[::max(1, len(records) // 20)]:
        if output(["query", store, str(trace)]) != line + b"\n":
            return "query %d did not print its stored line" % trace
        # The writer puts the provenance block last: its elements, as
        # stored, are the document's events.
        events = line[line.rindex(key) + len(key):-2] if key in line else b""
        doc = b'{"schema":"traceweaver.provenance.v1","trace":%d,' \
              b'"events":[%s]}\n' % (trace, events)
        if output(["provenance", store, str(trace)]) != doc:
            return "provenance %d did not print its stored events" % trace
        if json.loads(doc)["events"] != record.get("provenance", []):
            return "provenance %d events differ from the record's" % trace
    return None


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    cli = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory(prefix="tw_cli_smoke_") as tmp:
        spans, graph, ordered = (os.path.join(tmp, f) for f in
                                 ("spans.jsonl", "graph.txt", "sorted.jsonl"))
        store, ckpt = os.path.join(tmp, "store"), os.path.join(tmp, "ckpt")
        os.mkdir(ckpt)

        run(cli, ["simulate", "hotel", "200", "2"], spans)
        run(cli, ["infer-graph", spans], graph)

        reports = [os.path.join(tmp, f) for f in ("rc.json", "serve.json")]
        run(cli, ["reconstruct", "--report-json=" + reports[0], graph, spans])
        run(cli, ["evaluate", graph, spans])
        with open(spans) as f:
            root = next(json.loads(line)["id"] for line in f
                        if json.loads(line)["caller"] == "client")
        run(cli, ["explain", graph, spans, str(root)])
        run(cli, ["export-jaeger", graph, spans])

        run(cli, ["sort-spans", spans], ordered)
        serve = ["serve", "--store-dir=" + store, "--checkpoint-dir=" + ckpt,
                 "--tail-sample=0.5", "--report-json=" + reports[1], graph,
                 ordered]
        run(cli, serve)
        parser = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "parse_report.py")
        for report in reports:
            run(sys.executable, [parser, report])
        # Resuming at EOF has nothing left to emit on stdout.
        _, err = run(cli, serve[:1] + ["--resume"] + serve[1:],
                     want_stdout=False)
        if "(all state files restored)" not in err:
            sys.stderr.write("FAIL: serve --resume did not report its state "
                             "files restored\n%s" % err)
            return 1

        # All or nothing: a missing member refuses the resume.
        os.rename(os.path.join(ckpt, "sampler.jsonl"),
                  os.path.join(tmp, "sampler.jsonl"))
        expect_exit(cli, serve[:1] + ["--resume"] + serve[1:], 1,
                    "sampler.jsonl: missing")
        os.rename(os.path.join(tmp, "sampler.jsonl"),
                  os.path.join(ckpt, "sampler.jsonl"))

        # serve counts what it reads and repairs nothing: it takes no
        # --ingest.
        garbled = os.path.join(tmp, "garbled.jsonl")
        with open(ordered) as f, open(garbled, "w") as out:
            lines = f.readlines()
            out.writelines(lines[:10] + ["{garbage\n"] + lines[10:])
        ingest_json = os.path.join(tmp, "ingest.json")
        run(cli, ["serve", "--report-json=" + ingest_json, graph, garbled])
        with open(ingest_json) as f:
            ingest = json.load(f)["ingest"]
        if ingest["parse_errors"] != 1 or ingest["input"] != len(lines):
            sys.stderr.write("FAIL: serve ingest counters %r for %d spans "
                             "and one malformed line\n" % (ingest, len(lines)))
            return 1

        listing, _ = run(cli, ["query", store])
        trace = json.loads(listing.splitlines()[0])["trace"]
        run(cli, ["provenance", store, str(trace)])
        failure = check_stored_bytes(cli, store)
        if failure:
            sys.stderr.write("FAIL: " + failure + "\n")
            return 1

        for window in ("0", "abc"):
            expect_exit(cli, ["serve", "--window-ms=" + window, graph,
                              ordered], 2)
        expect_exit(cli, ["serve", "--resume", graph, ordered], 2,
                    "--resume requires --checkpoint-dir")
        missing = os.path.join(tmp, "no_such_dir")
        expect_exit(cli, ["serve", "--checkpoint-dir=" + missing, graph,
                          ordered], 2,
                    "--checkpoint-dir %s is not a writable directory"
                    % missing)

        # Each flag is otherwise a valid serve run, so a parser that
        # accepts the value runs to EOF (exit 0) or past the timeout.
        for n, (flag, want) in enumerate((
                ("--http-port=-1", "--http-port: expected unsigned integer"),
                ("--tail-sample=abc", "--tail-sample: expected number"),
                ("--checkpoint-every=1e3",
                 "--checkpoint-every: expected unsigned integer"))):
            bad_ckpt = os.path.join(tmp, "bad_ckpt%d" % n)
            os.mkdir(bad_ckpt)
            expect_exit(cli, ["serve", "--store-dir=" + os.path.join(
                tmp, "bad_store%d" % n), "--checkpoint-dir=" + bad_ckpt,
                flag, graph, ordered], 2, want)

        # A strtoull-style parser would run "7x" as seed 7 and "12abc" as
        # id 12, and exit 0.
        for args, want in (
                (["simulate", "hotel", "5x", "1"], "rps: expected number"),
                (["simulate", "hotel", "50", "1s"],
                 "seconds: expected number"),
                (["simulate", "hotel", "50", "1", "7x"],
                 "seed: expected unsigned integer"),
                (["replay", "hotel", "-3"],
                 "requests_per_root: expected unsigned integer"),
                (["explain", graph, spans, str(root) + "abc"],
                 "parent_span_id: expected unsigned integer"),
                (["query", store, str(trace) + "abc"],
                 "trace_id: expected unsigned integer"),
                (["provenance", store, " " + str(trace)],
                 "trace_id: expected unsigned integer")):
            expect_exit(cli, args, 2, want)

        # An inverted range used to list nothing and exit 0; an empty one
        # is legal.
        expect_exit(cli, ["query", "--from=10", "--to=9", store], 2,
                    "query: bad range: --from is after --to")
        run(cli, ["query", "--from=10", "--to=10", store], want_stdout=False)

        # A trailing flag used to be ignored: this resume re-ingested from
        # offset 0 and exited 0.
        for args in (serve + ["--resume"],
                     ["reconstruct", graph, spans, "--bogus"],
                     ["simulate", "hotel", "50", "1", "7", "8"],
                     ["query", store, str(trace), "extra"]):
            expect_exit(cli, args, 2,
                        "unexpected argument '%s'" % args[-1])

        # Each of these used to exit 0 with the flag ignored or its value
        # reset (or, for the window, blame the wrong flag).
        for args, want in (
                (["reconstruct", "--bogus", graph, spans],
                 "unknown flag '--bogus'"),
                (["reconstruct", "--window-ms=5", graph, spans],
                 "reconstruct: --window-ms does not apply"),
                (["serve", "--auto-slack", graph, ordered],
                 "serve: --auto-slack does not apply"),
                (["serve", "--ingest=strict", graph, ordered],
                 "serve: --ingest does not apply"),
                (["sort-spans", "--threads=3", spans],
                 "sort-spans: --threads does not apply"),
                (["query", "--grade=Z", store], "--grade: expected grade"),
                (["query", "--grade=AB", store, str(trace)],
                 "--grade: expected grade"),
                (["serve", "--window-ms=18446744073709", graph, ordered],
                 "--window-ms: expected milliseconds"),
                (["reconstruct", "--sampling-rate=0", graph, spans],
                 "--sampling-rate: expected number in (0, 1]"),
                (["serve", "--tail-sample=5", graph, ordered],
                 "--tail-sample: expected number in [0, 1]"),
                (["serve", "--http-port=70000", graph, ordered],
                 "--http-port: expected unsigned integer up to 65535")):
            expect_exit(cli, args, 2, want)
    print("cli_smoke: all commands passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
