#!/bin/sh
# CI gate: formatting, lints, the tier-1 build + test, every crate's tests,
# the benchmark's pinned digests, and the paper's goldens, equivalences and
# must-fail mutants.
#
# Run from the repository root. Every check is one row of scripts/gates;
# scripts/gates.sh runs the rows in order and stops at the first failing
# one, naming it.
set -eu
exec sh scripts/gates.sh scripts/gates
