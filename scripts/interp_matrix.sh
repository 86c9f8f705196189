#!/usr/bin/env bash
# Run `cgaweyl all` under every installed pyenv interpreter that the package
# supports and require each report to match the golden pin byte for byte.
# The pin is tests/golden_all.json: the whole report's length and sha256 and
# those of every section; tests/golden.py, run by the same interpreter,
# compares a report with it and names the first section that differs.  The
# package is stdlib-only, so no interpreter needs anything installed.
set -u

VERSIONS=(3.10.13 3.11.7 3.12.1 3.13.0)

repo=$(cd "$(dirname "$0")/.." && pwd)
check="$repo/tests/golden.py"
root=${PYENV_ROOT:-$HOME/.pyenv}
out=$(mktemp)
trap 'rm -f "$out"' EXIT
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
    if [ "$code" -eq 0 ] && [ "$checked" -eq 0 ]; then
        echo "ok    $v"
    else
        echo "FAIL  $v: exit $code, $problem"
        status=1
    fi
done
if [ "$ran" -eq 0 ]; then
    echo "FAIL  no interpreter found"
    status=1
fi
exit $status
