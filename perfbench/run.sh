#!/bin/sh
# Build the benchmark from the sources of this checkout, then run it.
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --self-test
#
# Run from the root of the checkout.  Build output goes to stderr, so
# the last line of stdout is the benchmark's result object.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a perfclone checkout" >&2
  exit 2
fi
# No shared dune cache: the build writes only inside the checkout.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
