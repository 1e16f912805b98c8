#!/usr/bin/env python3
"""Summarize a `go test -json` stream read from stdin.

Echoes the output of every failing test (and of a failing package, a
timeout panic included) as it ends, then lists the N slowest top-level
tests (default 10) by elapsed time, so a suite creeping toward its
timeout shows before it hits it:

    set -o pipefail
    go test -race -timeout 20m -json ./internal/mc/ | python3 scripts/slowest_tests.py 10

Exits 0; the pipeline's status is go test's.
"""
import json
import sys


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    output, ended = {}, []
    for line in sys.stdin:
        try:
            ev = json.loads(line)
        except ValueError:  # build errors arrive as plain text
            sys.stdout.write(line)
            continue
        key = (ev.get("Package"), ev.get("Test"))
        action = ev.get("Action")
        if action == "output":
            output.setdefault(key, []).append(ev.get("Output", ""))
            continue
        if action not in ("pass", "fail", "skip"):
            continue
        if action == "fail":
            sys.stdout.write("".join(output.get(key, [])))
        output.pop(key, None)
        test = ev.get("Test")
        if test is None:
            print(f"{action} {ev.get('Package')} {ev.get('Elapsed', 0):.1f}s")
        elif "/" not in test and action != "skip":
            ended.append((ev.get("Elapsed", 0), action, test))
    ended.sort(reverse=True)
    print(f"slowest {min(n, len(ended))} of {len(ended)} tests:")
    for elapsed, action, test in ended[:n]:
        print(f"{elapsed:8.1f}s  {action:4s}  {test}")


if __name__ == "__main__":
    main()
