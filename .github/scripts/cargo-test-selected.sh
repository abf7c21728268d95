#!/bin/sh
# Runs `cargo test -q ARGS...` after checking that the test-name filter in
# ARGS selects at least one test. A filter that matches nothing would
# otherwise pass without running anything.
set -eu
n=$(cargo test -q "$@" -- --list | grep -c ': test$' || true)
if [ "$n" -eq 0 ]; then
    echo "cargo test $*: the filter selects no tests" >&2
    exit 1
fi
echo "cargo test $*: $n test(s) selected"
exec cargo test -q "$@"
