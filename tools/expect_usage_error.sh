#!/bin/sh
# Runs a command line that must be rejected as an argument error: it
# must exit with status 2 and print a diagnostic matching PATTERN
# followed by the usage text.
#
# Usage: tools/expect_usage_error.sh PATTERN PROGRAM [ARGS...]
pattern=$1
shift
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 2 ]; then
    echo "expected exit status 2, got $status"
    exit 1
fi
printf '%s\n' "$out" | grep -q -- "$pattern" || {
    echo "missing diagnostic: $pattern"
    exit 1
}
printf '%s\n' "$out" | grep -q '^usage:' || {
    echo "missing usage text"
    exit 1
}
