#!/usr/bin/env bash
# The allocation gate: runs the two counting-allocator test binaries, each of
# which wraps the global allocator.
#
# - crates/core/tests/counting_alloc.rs proves the warm record → flush-drain
#   → chunked-digest-fold pipeline performs zero heap allocations per entry.
# - crates/fleet/tests/analysis_alloc.rs proves the analysis half of the
#   streaming sink (IntervalBuilder → drain_completed → ObservationPool::add,
#   SegmentBuilder) does too, and that a warm execute_streaming_in of one LPL
#   cell allocates the same number of times at 60 s and 600 s simulated.
#
# Together they are the property the pooled SimWorkspace sweep path stands on.
#
#   scripts/check_alloc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release -q -p quanto-core --test counting_alloc
cargo test --release -q -p quanto-fleet --test analysis_alloc
