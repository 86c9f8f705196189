#!/usr/bin/env bash
# Run `cgaweyl all` under every installed pyenv interpreter that the package
# supports and require each report to match the golden sha256 byte for byte.
# The golden hash is read from GOLDEN_ALL_SHA256 in tests/test_cli.py, the
# one place it is pinned.  The package is stdlib-only, so no interpreter
# needs anything installed.
set -u

VERSIONS=(3.10.13 3.11.7 3.12.1 3.13.0)

repo=$(cd "$(dirname "$0")/.." && pwd)
pin="$repo/tests/test_cli.py"
GOLDEN_SHA256=$(grep -A1 '^GOLDEN_ALL_SHA256 =' "$pin" 2>/dev/null \
    | grep -oE '[0-9a-f]{64}')
if ! [[ $GOLDEN_SHA256 =~ ^[0-9a-f]{64}$ ]]; then
    echo "FAIL  cannot read one GOLDEN_ALL_SHA256 from $pin"
    exit 1
fi
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
    sum=$(sha256sum < "$out" | cut -d' ' -f1)
    if [ "$code" -eq 0 ] && [ "$sum" = "$GOLDEN_SHA256" ]; then
        echo "ok    $v"
    else
        echo "FAIL  $v: exit $code, sha256 $sum"
        status=1
    fi
done
if [ "$ran" -eq 0 ]; then
    echo "FAIL  no interpreter found"
    status=1
fi
exit $status
