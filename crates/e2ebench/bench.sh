#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the harness and the
# server `serve_mix` spawns, then run the harness with the given arguments.
# Run from the root of a checkout; a bare `cargo build --release` there
# builds neither binary, so both packages are named.
set -euo pipefail
cargo build --release --offline --quiet -p plinger -p e2ebench --bin plinger-serve --bin e2ebench
exec "${CARGO_TARGET_DIR:-target}/release/e2ebench" "$@"
