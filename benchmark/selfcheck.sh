#!/usr/bin/env bash
# Run the untraced set of workloads twice (three runs each, taken
# alternately) and compare the medians: exits non-zero if an end-to-end
# metric differs between the sets by more than its bound, or a count that
# must repeat does not.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" selfcheck "$@"
