#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by the obs tracer.

Checks the structural contract chrome://tracing and Perfetto rely on:
  * top level is an object with a "traceEvents" list
  * every event has ph in {X, i, M}, integer pid/tid, and a name
  * every name is one of the known obs event names (obs::to_string(Ev);
    test_obs's Tracer.ValidatorKnowsExactlyTheEventNames fails when
    KNOWN_EVENTS differs from it)
  * X (span) events carry numeric ts and dur >= 0
  * i (instant) events carry numeric ts and a scope "s"
  * M events are thread_name metadata with a non-empty args.name

With --require-casper-tracks it additionally asserts the semantic layout the
PR's acceptance check asks for: ghost tracks exist and carry the redirected
accumulate servicing (op.committed / ghost.service), and user tracks carry
the application compute spans.

Usage: validate_chrome_trace.py TRACE.json [--require-casper-tracks]
Exits 0 when valid, 1 with a diagnostic otherwise. stdlib only.
"""
import json
import numbers
import sys


# The event-name vocabulary of the obs tracer (src/obs/trace.cpp,
# obs::to_string(Ev)). An exporter emitting anything else is a schema break:
# downstream tooling keys on these names.
KNOWN_EVENTS = {
    "op.issued",
    "op.hw",
    "op.redirected",
    "op.split",
    "lb.decision",
    "lb.adapt",
    "op.committed",
    "op.flushed",
    "epoch.begin",
    "epoch.translate",
    "epoch.end",
    "fiber.switch",
    "ghost.service",
    "compute",
    "fault.inject",
    "am.retry",
    "ghost.dead",
    "recovery.rebind",
    "race.conflict",
    "kv.op",
    "mwcas.op",
}


def fail(msg):
    print(f"validate_chrome_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def is_num(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[1]
    require_casper = "--require-casper-tracks" in argv[2:]

    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents key")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty list")

    thread_names = {}  # tid -> name
    names_by_tid = {}  # tid -> set of event names
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            fail(f"{where}: unexpected ph {ph!r}")
        if not isinstance(ev.get("pid"), int) or not isinstance(
            ev.get("tid"), int
        ):
            fail(f"{where}: pid/tid must be integers")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(f"{where}: missing name")
        if ph == "M":
            if ev["name"] != "thread_name":
                fail(f"{where}: metadata other than thread_name: {ev['name']}")
            tname = ev.get("args", {}).get("name")
            if not isinstance(tname, str) or not tname:
                fail(f"{where}: thread_name without args.name")
            thread_names[ev["tid"]] = tname
            continue
        if ev["name"] not in KNOWN_EVENTS:
            fail(f"{where}: unknown event name {ev['name']!r}")
        if not is_num(ev.get("ts")):
            fail(f"{where}: {ph} event without numeric ts")
        if ph == "X":
            if not is_num(ev.get("dur")) or ev["dur"] < 0:
                fail(f"{where}: X event without numeric dur >= 0")
        else:
            if ev.get("s") not in ("t", "p", "g"):
                fail(f"{where}: i event without scope s")
        names_by_tid.setdefault(ev["tid"], set()).add(ev["name"])

    n_spans = sum(1 for e in events if e.get("ph") == "X")
    n_inst = sum(1 for e in events if e.get("ph") == "i")
    print(
        f"validate_chrome_trace: OK: {len(events)} events "
        f"({n_spans} spans, {n_inst} instants, "
        f"{len(thread_names)} named tracks)"
    )

    if not require_casper:
        return 0

    ghost_tids = {t for t, n in thread_names.items() if n.startswith("ghost ")}
    user_tids = {t for t, n in thread_names.items() if n.startswith("user ")}
    if not ghost_tids:
        fail("no ghost tracks (thread_name 'ghost N') in the trace")
    if not user_tids:
        fail("no user tracks (thread_name 'user N') in the trace")

    ghost_events = set()
    for t in ghost_tids:
        ghost_events |= names_by_tid.get(t, set())
    if not ({"op.committed", "ghost.service"} & ghost_events):
        fail("ghost tracks carry no redirected-op servicing events")
    user_events = set()
    for t in user_tids:
        user_events |= names_by_tid.get(t, set())
    if "compute" not in user_events:
        fail("user tracks carry no compute spans")
    if "op.redirected" not in user_events:
        fail("user tracks carry no op.redirected events")
    print(
        "validate_chrome_trace: OK: casper layout "
        f"({len(ghost_tids)} ghost tracks serving, "
        f"{len(user_tids)} user tracks computing)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
