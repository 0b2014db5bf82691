#!/bin/sh
# Builds the benchmark and runs every workload with the given seed:
#   benchmark/run.sh <seed>
# Results go to benchmark/out/result_seed<seed>.json, traces beside it.
set -eu
seed=${1:?usage: benchmark/run.sh <seed>}
cd "$(dirname "$0")/.."
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/out
exec cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    run --seed "$seed" --out "benchmark/out/result_seed$seed.json"
