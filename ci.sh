#!/usr/bin/env bash
# Local CI gate: everything a change must pass before it lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace (serial pipeline, GCD2_THREADS=1)"
GCD2_THREADS=1 cargo test --workspace -q

echo "==> cargo test --workspace (default parallelism)"
cargo test --workspace -q

echo "==> kernel suite (GEMM + resident-panel + transpose + im2col + depthwise identity) on the scalar oracle (GCD2_FORCE_SCALAR=1: im2col_identity holds the portable form to the oracle)"
GCD2_FORCE_SCALAR=1 cargo test -q -p gcd2-kernels

echo "==> kernel suite (GEMM + resident-panel + transpose + im2col + depthwise identity) on the auto-detected SIMD tier (im2col_identity holds the tile form, and every tier the host supports, to the oracle)"
cargo test -q -p gcd2-kernels

echo "==> perfbench's own unit tests"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> perfbench correctness smoke (infer_dw: every answer byte-checked against execute_reference)"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload infer_dw --seed 7 --seconds 2 --trace 0

echo "==> perfbench correctness smoke (infer_gemm: resnet-50 and tinybert — tile im2col, resident panels and the banded side of the GEMM fan-out rule, byte-checked)"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload infer_gemm --seed 7 --seconds 2 --trace 0

echo "==> compile-time bench smoke (BENCH_compile.json, bit-identical check)"
cargo run --release -q -p gcd2-bench --bin compile_time -- --smoke

echo "==> inference-throughput bench smoke (BENCH_infer.json, bit-identical check)"
cargo run --release -q -p gcd2-bench --bin infer_throughput -- --smoke

echo "==> static plan analysis over the catalog (thread-invariant output)"
mkdir -p target
GCD2_THREADS=1 cargo run --release -q -p gcd2 --bin gcd2c -- --analyze \
    > target/analyze_serial.txt
cargo run --release -q -p gcd2 --bin gcd2c -- --analyze \
    > target/analyze_parallel.txt
diff target/analyze_serial.txt target/analyze_parallel.txt
grep -q "all 10 catalog models analyze clean" target/analyze_serial.txt

echo "==> chaos suites: compile, runtime, gateway, supervisor, artifact (fault injection; each seeded scenario sweeps fault seeds 2024 and 7)"
cargo test -q --features fault-injection \
    --test chaos --test runtime_chaos --test gateway_chaos --test supervisor_chaos --test artifact_chaos

echo "==> circuit-breaker property suite (reference-model equivalence)"
cargo test -q --test breaker_property

echo "==> artifact round-trip + hostile-corpus suites"
cargo test -q --test artifact_roundtrip
cargo test -q --test artifact_hostile

echo "==> serving-gateway bench smoke (BENCH_serve.json, bit-identical + multi-worker check)"
cargo run --release -q -p gcd2-bench --bin serve_throughput -- --smoke

echo "==> clippy unwrap/expect deny gate (gcd2 + gcd2-globalopt + gcd2-kernels + gcd2-analyze + gcd2-artifact lib paths)"
cargo clippy -q -p gcd2 -p gcd2-globalopt -p gcd2-kernels -p gcd2-analyze -p gcd2-artifact --lib -- -D warnings

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
