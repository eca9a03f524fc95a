#!/usr/bin/env python3
"""Assert a structured query log is valid JSONL with the expected shape.

Usage: check_query_log.py QUERY_LOG SLOW_LOG EXPECTED_RECORDS EXPECTED_SESSIONS

Checks (used by the CI server-smoke leg after driving N concurrent
clients against semopt_server --query-log/--slow-log):

  - every line parses as JSON and carries the stable breakdown keys;
  - exactly EXPECTED_RECORDS records, with unique qids and
    EXPECTED_SESSIONS distinct sids (concurrent sessions never tear or
    drop lines);
  - every record names its query path (edb, pushed, magic, sliced; ""
    when the query failed before one was chosen), and the admission
    class follows it: light iff the path is edb;
  - heavy-class records ran a fixpoint (iterations > 0) and carry
    per-round entries;
  - every ok record is internally consistent: one rounds[] entry per
    iteration, fixpoint_us <= eval_us (the fixpoint runs inside the
    query-path call), and, off the edb path, the rounds' derived counts
    sum to the record's derived (the edb path counts its answers as
    derived without running a round);
  - with the slow threshold armed below every query's latency, the slow
    log mirrors every record.
"""

import json
import sys

PATHS = ("", "edb", "pushed", "magic", "sliced")

REQUIRED = ("qid", "sid", "query", "class", "path", "ok", "answers",
            "total_us", "parse_us", "queue_wait_us", "pin_us", "eval_us",
            "fixpoint_us",
            "render_us", "pinned_epoch", "plan_cache_hits",
            "plan_cache_misses", "iterations", "derived", "duplicates",
            "rounds")


def main(argv):
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    log_path, slow_path = argv[1], argv[2]
    expected_records, expected_sessions = int(argv[3]), int(argv[4])

    records = []
    with open(log_path) as f:
        for lineno, line in enumerate(f, start=1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"check_query_log: line {lineno} is not JSON: {e}",
                      file=sys.stderr)
                return 1
            missing = [k for k in REQUIRED if k not in rec]
            if missing:
                print(f"check_query_log: line {lineno} missing {missing}",
                      file=sys.stderr)
                return 1
            records.append(rec)

    if len(records) != expected_records:
        print(f"check_query_log: {len(records)} records, expected"
              f" {expected_records}", file=sys.stderr)
        return 1
    qids = {r["qid"] for r in records}
    if len(qids) != len(records):
        print("check_query_log: duplicate qids", file=sys.stderr)
        return 1
    sids = {r["sid"] for r in records}
    if len(sids) != expected_sessions:
        print(f"check_query_log: {len(sids)} sessions, expected"
              f" {expected_sessions}", file=sys.stderr)
        return 1
    for r in records:
        if r["path"] not in PATHS:
            print(f"check_query_log: unknown query path: {r}",
                  file=sys.stderr)
            return 1
        if r["path"] and r["class"] and \
                (r["class"] == "light") != (r["path"] == "edb"):
            print(f"check_query_log: class does not follow the path: {r}",
                  file=sys.stderr)
            return 1
    for r in records:
        if not r["ok"]:
            continue
        if len(r["rounds"]) != r["iterations"]:
            print(f"check_query_log: {len(r['rounds'])} rounds for"
                  f" {r['iterations']} iterations: {r}", file=sys.stderr)
            return 1
        if r["fixpoint_us"] > r["eval_us"]:
            print(f"check_query_log: fixpoint_us exceeds eval_us: {r}",
                  file=sys.stderr)
            return 1
        if r["path"] != "edb" and \
                sum(rd["derived"] for rd in r["rounds"]) != r["derived"]:
            print(f"check_query_log: rounds do not sum to derived: {r}",
                  file=sys.stderr)
            return 1
    heavy = [r for r in records if r["class"] == "heavy"]
    if not heavy:
        print("check_query_log: no heavy-class records", file=sys.stderr)
        return 1
    for r in heavy:
        if r["ok"] and (r["iterations"] <= 0 or not r["rounds"]):
            print(f"check_query_log: heavy record without fixpoint rounds:"
                  f" {r}", file=sys.stderr)
            return 1

    slow = sum(1 for _ in open(slow_path))
    if slow != len(records):
        print(f"check_query_log: slow log has {slow} records, expected"
              f" {len(records)}", file=sys.stderr)
        return 1
    print(f"check_query_log: OK ({len(records)} records, {len(sids)}"
          f" sessions, {len(heavy)} heavy, {slow} slow)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
