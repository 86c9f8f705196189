#!/usr/bin/env bash
# Run `cgaweyl all` and every pinned CLI command under every installed pyenv
# interpreter that the package supports, and require each report to match
# its golden pin byte for byte.  The pins are tests/golden_all.json (the
# whole `all` report's length and sha256 and those of every section) and
# tests/golden_cli.json (each smoke command's argv, exit code and report);
# tests/golden.py, run by the same interpreter, compares a report with its
# pin and names the first section that differs.  For the pinned commands it
# runs `golden.py --commands` with a temporary `cgaweyl` on PATH that runs
# `python -m cgaweyl.cli` under that interpreter.  The package is
# stdlib-only, so no interpreter needs anything installed.
set -u

VERSIONS=(3.10.13 3.11.7 3.12.1 3.13.0)

repo=$(cd "$(dirname "$0")/.." && pwd)
check="$repo/tests/golden.py"
root=${PYENV_ROOT:-$HOME/.pyenv}
out=$(mktemp)
shim=$(mktemp -d)
trap 'rm -rf "$out" "$shim"' EXIT
status=0
ran=0
for v in "${VERSIONS[@]}"; do
    exe="$root/versions/$v/bin/python3"
    if [ ! -x "$exe" ]; then
        echo "skip  $v: no interpreter at $exe"
        continue
    fi
    ran=$((ran + 1))
    PYTHONPATH="$repo/src" PYTHONDONTWRITEBYTECODE=1 \
        "$exe" -m cgaweyl.cli all > "$out"
    code=$?
    problem=$(PYTHONDONTWRITEBYTECODE=1 "$exe" "$check" "$out" 2>&1)
    checked=$?
    printf '#!/bin/sh\nPYTHONPATH=%q PYTHONDONTWRITEBYTECODE=1 exec %q -m cgaweyl.cli "$@"\n' \
        "$repo/src" "$exe" > "$shim/cgaweyl"
    chmod +x "$shim/cgaweyl"
    commands=$(PATH="$shim:$PATH" PYTHONDONTWRITEBYTECODE=1 "$exe" "$check" --commands 2>&1)
    listed=$?
    ok=1
    if [ "$code" -ne 0 ] || [ "$checked" -ne 0 ]; then
        echo "FAIL  $v: exit $code, $problem"
        ok=0
    fi
    if [ "$listed" -ne 0 ]; then
        echo "FAIL  $v: pinned commands"
        printf '%s\n' "$commands" | grep -v '^ok' | sed 's/^/      /'
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then
        echo "ok    $v: all and $(printf '%s\n' "$commands" | grep -c '^ok') pinned commands"
    else
        status=1
    fi
done
if [ "$ran" -eq 0 ]; then
    echo "FAIL  no interpreter found"
    status=1
fi
exit $status
