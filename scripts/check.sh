#!/bin/sh
# check.sh — the repository's CI gate. Every stage lives in the Makefile;
# this runs `make check` from the repository root and exits non-zero on the
# first failure.
set -eu

cd "$(dirname "$0")/.."
exec make check
