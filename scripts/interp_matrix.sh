#!/usr/bin/env bash
# Run every pinned CLI command under every installed pyenv interpreter that
# the package supports, and require each run to match its golden pin byte
# for byte.  tests/golden_cli.json pins each command's argv, exit code and
# report, the whole report and every section; tests/golden.py, run by the
# same interpreter, runs each command through a temporary `cgaweyl` on PATH
# that runs `python -m cgaweyl.cli` under that interpreter, and names the
# sections that differ.  Each interpreter also runs the benchmark's own
# tests (perfbench/tests, whose tracer rebinds engine functions by name).
# The package is stdlib-only, so no interpreter needs anything installed.
set -u

VERSIONS=(3.10.13 3.11.7 3.12.1 3.13.0)

repo=$(cd "$(dirname "$0")/.." && pwd)
root=${PYENV_ROOT:-$HOME/.pyenv}
shim=$(mktemp -d)
trap 'rm -rf "$shim"' EXIT
status=0
ran=0
for v in "${VERSIONS[@]}"; do
    exe="$root/versions/$v/bin/python3"
    if [ ! -x "$exe" ]; then
        echo "skip  $v: no interpreter at $exe"
        continue
    fi
    ran=$((ran + 1))
    printf '#!/bin/sh\nPYTHONPATH=%q PYTHONDONTWRITEBYTECODE=1 exec %q -m cgaweyl.cli "$@"\n' \
        "$repo/src" "$exe" > "$shim/cgaweyl"
    chmod +x "$shim/cgaweyl"
    if commands=$(PATH="$shim:$PATH" PYTHONDONTWRITEBYTECODE=1 "$exe" "$repo/tests/golden.py" 2>&1); then
        echo "ok    $v: $(printf '%s\n' "$commands" | grep -c '^ok') pinned commands"
    else
        echo "FAIL  $v: pinned commands"
        printf '%s\n' "$commands" | grep -v '^ok' | sed 's/^/      /'
        status=1
    fi
    if tests=$(PYTHONDONTWRITEBYTECODE=1 "$exe" -m unittest discover -s "$repo/perfbench/tests" 2>&1); then
        echo "ok    $v: perfbench tests, $(printf '%s\n' "$tests" | grep -o '^Ran [0-9]* tests*')"
    else
        echo "FAIL  $v: perfbench tests"
        printf '%s\n' "$tests" | sed 's/^/      /'
        status=1
    fi
done
if [ "$ran" -eq 0 ]; then
    echo "FAIL  no interpreter found"
    status=1
fi
exit $status
