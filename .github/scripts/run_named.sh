#!/usr/bin/env bash
# Runs one named test filter inside a test harness and fails when the filter
# matches zero tests. `cargo test` with a filter that matches nothing still
# exits 0, so a renamed lockdown test would silently drop out of CI without
# this guard; every run is therefore checked for a non-zero pass count.
#
# Usage: run_named.sh <harness> <filter> [extra cargo test args...]
# <harness> names an integration-test target (`properties`, `end_to_end`),
# or `lib:<package>` for that package's unit tests.
set -euo pipefail

harness="$1"
filter="$2"
shift 2

case "$harness" in
  lib:*) target=(-p "${harness#lib:}" --lib) ;;
  *) target=(--test "$harness") ;;
esac

if ! out=$(cargo test -q "${target[@]}" "$filter" "$@" 2>&1); then
  echo "$out"
  exit 1
fi
echo "$out"
echo "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed' \
  || { echo "::error::filter '$filter' matched no tests in $harness"; exit 1; }
