#!/usr/bin/env bash
# Build `seep-node` (root workspace) and the benchmark, then run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]      every workload
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh selfcheck [--seed N]                    see selfcheck.sh
#
# Build output goes to stderr and under $CARGO_TARGET_DIR (default
# benchmark/target); everything else the benchmark writes goes to
# benchmark/out. Both are ignored by git.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
if [ ! -f "$ROOT/Cargo.toml" ] || [ ! -d "$ROOT/crates" ]; then
  echo "run.sh: $ROOT is not a checkout of the repo; nothing to measure" >&2
  exit 3
fi

TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
case "$TARGET" in
  /*) ;;
  *) TARGET="$PWD/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"
BIN="$TARGET/release"
STAMP="$BIN/.seep-benchmark-built"

# Rebuild only when a source file is newer than the last build: the two
# `cargo build` calls cost a second each even when there is nothing to do.
up_to_date() {
  [ -x "$BIN/seep-node" ] && [ -x "$BIN/seep-benchmark" ] && [ -f "$STAMP" ] &&
    [ -z "$(find "$ROOT/Cargo.toml" "$ROOT/crates" "$ROOT/shims" "$ROOT/src" \
      "$HERE/Cargo.toml" "$HERE/src" -type f -newer "$STAMP" -print -quit)" ]
}
if ! up_to_date; then
  cargo build --release --offline --manifest-path "$ROOT/Cargo.toml" \
    -p seep-node --bin seep-node >&2
  cargo build --release --offline --manifest-path "$HERE/Cargo.toml" >&2
  touch "$STAMP"
fi

MODE=all
if [ "${1:-}" = selfcheck ]; then
  MODE=selfcheck
  shift
else
  for arg in "$@"; do
    [ "$arg" = --workload ] && MODE=run
  done
fi
exec "$BIN/seep-benchmark" "$MODE" --out-dir "$HERE/out" --node-bin "$BIN/seep-node" "$@"
