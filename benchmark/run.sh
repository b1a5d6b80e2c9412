#!/usr/bin/env bash
# Build the benchmark package and run it. Every argument goes to the binary:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--workload W] [--out F]             both phases of every workload
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# Keep freed memory inside the process. With glibc's defaults every
# repetition hands several hundred MB back to the kernel and faults them in
# again, which made identical repetitions differ by 11 % in wall clock; with
# these settings they differ by 3-4 %. The settings are part of the benchmark:
# every commit is measured under them.
export MALLOC_TRIM_THRESHOLD_=8589934592 MALLOC_MMAP_THRESHOLD_=4294967296 MALLOC_TOP_PAD_=268435456
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ishare-benchmark" "$@"
