#!/bin/sh
# Runs check_regression over the gate fixtures in this directory, printing
# each run's output and exit code.  The runtest rule in bench/dune diffs
# this against gates.expected; run from the directory holding
# check_regression.exe and fixtures/.
run() {
  echo "== check_regression $*"
  ./check_regression.exe "$@" 2>&1
  echo "exit $?"
}
# --validate: between them the three files trip every validate gate.
run --validate fixtures/validate_rows.json
run --validate fixtures/validate_sections.json
run --validate fixtures/validate_empty.json
# Compare: a slower time, a lower rate, a MISSING row and a lost
# certificate for every compare gate; the fresh run has nproc=1, so the
# baseline's multi-domain rows are skipped.
run fixtures/compare_base.json fixtures/compare_fresh.json --out compare.verdict
cat compare.verdict
rm -f compare.verdict
# Input that is not a sound bench file exits 2.
run --validate fixtures/truncated.json
run fixtures/truncated.json fixtures/compare_fresh.json
run --validate fixtures/malformed.json
run --validate fixtures/unknown_schema.json
run --validate fixtures/missing_field.json
run --validate fixtures/absent.json
