#!/usr/bin/env bash
# Local CI gate: everything a change must pass before it lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> kernel suite (GEMM + resident-panel + transpose + im2col + depthwise + group-kernel identity) on the scalar oracle (GCD2_FORCE_SCALAR=1: im2col_identity holds the portable form and the pixel-major form to the oracle, hostops_identity the portable softmax and layernorm to the forms they replaced)"
GCD2_FORCE_SCALAR=1 cargo test -q -p gcd2-kernels

echo "==> kernel suite (GEMM + resident-panel + transpose + im2col + depthwise + group-kernel identity) on the auto-detected SIMD tier (the GEMM, its folded clamp, the transpose, im2col, the depthwise kernel and the softmax / layernorm group kernels are each held to their oracle at every tier the host supports)"
cargo test -q -p gcd2-kernels

echo "==> depthwise / pool / gate and group-kernel identity suites on the VNNI tier of an AMX host (GCD2_AMX=0; the two runs above cover the AMX tier and the scalar oracle: the pixel-major forms are selected on every host, and the group kernels have one form, so they are held to their oracle on every tier)"
GCD2_AMX=0 cargo test -q -p gcd2-kernels --test dwconv_identity --test hostops_identity

echo "==> plan execution, end-to-end and batch suites on the VNNI tier of an AMX host (GCD2_AMX=0: whole plans run from the shared quad panel through the vpdpbusd strips, and the layout differential — chosen == all-chw == interpreter on all ten models — the exhaustive every-assignment differential and the batch gate — inputs in turn over one reused arena == through a one-worker gateway bounded at max_batch 1, 2, 5, whose batches are whatever queued behind the busy worker and never exceed the bound == a fresh arena == the interpreter — run there too; perfbench refuses the variable, the test suites do not)"
GCD2_AMX=0 cargo test -q -p gcd2 --lib infer::
GCD2_AMX=0 cargo test -q --test end_to_end --test infer_batch --test serve_gateway

echo "==> plan execution, the layout differentials and the batch gate (one reused arena and the gateway == a fresh arena == the interpreter) on the scalar oracle (GCD2_FORCE_SCALAR=1: every panel the row-major bytes, the portable transposes, im2col and pixel-major depthwise, rows-ordered weights read as they lie)"
GCD2_FORCE_SCALAR=1 cargo test -q -p gcd2 --lib infer::
GCD2_FORCE_SCALAR=1 cargo test -q --test end_to_end -- chosen_layouts_equal_all_chw_equal_the_interpreter \
    mobile_net_depthwise_steps_run_in_rows_with_no_conversion \
    every_admissible_layout_assignment_executes_identically_and_the_selection_is_the_cheapest
GCD2_FORCE_SCALAR=1 cargo test -q --test infer_batch --test serve_gateway

echo "==> the compiler and the executor are plain code with one panic guard and one tier override (gcd2-par holds only default_threads; no catch_unwind outside comments and #[cfg(test)] in any crate's src but crates/core/src; no retry, ISA demotion, second tier override, batching window (max_wait), compile budget, deadline or middle selection rung anywhere in crates/, src/, tests/ or examples/, the kernels keep no process-wide tier, and GCD2 selection reads no clock: its one limit is a state count)"
test "$(grep -c 'pub fn' crates/par/src/lib.rs)" -eq 1
if find crates -path crates/core/src -prune -o -path '*/src/*.rs' -print \
    | xargs awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 }
                 !test && !/^ *\/\// && /catch_unwind/ { print FILENAME ": " $0; found = 1 }
                 END { exit !found }'; then exit 1; fi
if grep -rEn 'retry_budget|demote_after|force_scalar|pin_scalar|force_isa|kernel_attributed|Work::Rerun' \
    crates src tests examples; then exit 1; fi
if grep -rn 'max_wait' crates src tests examples; then exit 1; fi
if grep -rEn 'CompileBudget|BudgetClock|DegradeReason|with_budget|chain_segments|Rung::' \
    crates src tests examples; then exit 1; fi
if grep -rn 'std::time' crates/globalopt/src; then exit 1; fi
if grep -n 'static FORCED' crates/kernels/src/dispatch.rs; then exit 1; fi

echo "==> perfbench's own unit tests"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> perfbench correctness smoke (infer_dw: every answer byte-checked against execute_reference)"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload infer_dw --seed 7 --seconds 2 --trace 0

echo "==> perfbench correctness smoke (infer_gemm: resnet-50 and tinybert — tile im2col, rows-in staging and resident panels from one row to 12544, byte-checked)"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload infer_gemm --seed 7 --seconds 2 --trace 0

echo "==> static plan analysis over the catalog"
mkdir -p target
cargo run --release -q -p gcd2 --bin gcd2c -- --analyze > target/analyze.txt
grep -q "all 10 catalog models analyze clean" target/analyze.txt

echo "==> the default selector is certified (ext_selection: all ten catalog models come back complete with gap 0 — the PBQP answer is the optimum of Equation 1, by its reductions alone on nine models and by pbqp::certify's branch-and-bound on efficientdet-d0 — and the four models whose DSP assignment moved off GCD2(13)'s run on the simulated DSP byte for byte equal to the interpreter; release)"
cargo run --release -q -p gcd2-bench --bin ext_selection > target/ext-selection.txt
awk -F'|' '$3 ~ /^ *[0-9]+ *$/ { rows++; if ($12 ~ /^ *0 *$/ && $13 ~ /^ *yes *$/) ok++ }
           END { exit !(rows == 10 && ok == 10) }' target/ext-selection.txt
cargo test --release -q --test end_to_end -- --ignored moved_assignments_execute_on_dsp_bit_identically

echo "==> artifact emit → load smoke (resnet-50: every stage of the load ledger is printed — no weights copy: the panels are packed from the borrowed section a k-tile at a time — the weight stages with a B/ns rate, and the stages cover the reported wall clock to within 10 %; emitting twice gives the same bytes, and so does emitting under GCD2_FORCE_SCALAR=1 — 25.5 MB of weights read back from the quad panels against the row-major bytes of the scalar tier, synthesised by the row generator's AVX-512F and plain forms on an AVX-512 host — both with the pinned integrity checksum; a format-6 artifact is refused as a version skew)"
cargo run --release -q -p gcd2 --bin gcd2c -- resnet-50 --emit target/ci-resnet-50.gcd2art > target/emit.txt
cargo run --release -q -p gcd2 --bin gcd2c -- --load target/ci-resnet-50.gcd2art > target/load.txt
for stage in container "graph+schedule+selection" pack integrity unaccounted; do
    grep -q "^    $stage *: " target/load.txt
done
if grep -q "weights copy" target/load.txt; then exit 1; fi
for stage in pack integrity; do
    grep -Eq "^    $stage *: +[0-9.]+ +[0-9.]+ B/ns$" target/load.txt
done
awk '/load stages, ms of/ { wall = $5 }
     /^    [^:]+: +[0-9.]+( +[0-9.]+ B\/ns)?$/ && !/unaccounted/ { sub(/^[^:]*: +/, ""); sum += $1 }
     END { exit !(wall > 0 && sum >= 0.9 * wall && sum <= 1.1 * wall) }' target/load.txt
# A second process emits the same bytes, and so does the scalar oracle tier; the artifact an earlier format wrote is a named skew and exit 1, never a panic.
cargo run --release -q -p gcd2 --bin gcd2c -- resnet-50 --emit target/ci-resnet-50-again.gcd2art > /dev/null
cmp target/ci-resnet-50.gcd2art target/ci-resnet-50-again.gcd2art
GCD2_FORCE_SCALAR=1 cargo run --release -q -p gcd2 --bin gcd2c -- resnet-50 --emit target/ci-resnet-50-scalar.gcd2art > target/emit-scalar.txt
cmp target/ci-resnet-50.gcd2art target/ci-resnet-50-scalar.gcd2art
grep -q "^emitted .*, integrity 0x6241cf526ebe7984$" target/emit.txt
grep -q "^emitted .*, integrity 0x6241cf526ebe7984$" target/emit-scalar.txt
if cargo run --release -q -p gcd2 --bin gcd2c -- --load tests/data/golden_v6.gcd2art > /dev/null 2> target/skew.txt; then exit 1; fi
grep -q "artifact format version 6 (this build reads" target/skew.txt
if grep -q panicked target/skew.txt; then exit 1; fi

echo "==> one resident copy of the weights (resnet-50 on the detected tier: the resident weight bytes are the weight bytes plus the quad panels' padding, at most 1.03 × — the i16 pair panel of an AVX2 host is twice that)"
cargo run --release -q -p gcd2 --bin gcd2c -- resnet-50 --infer 1 > target/resident.txt
awk '/^  weights +: / { weights = $3; resident = $6 }
     /^  kernel isa +: / { bound = ($4 == "avx2") ? 2.03 : 1.03 }
     END { exit !(weights > 0 && resident >= weights && resident <= bound * weights) }' target/resident.txt

echo "==> kernel-choice determinism (resnet-50 in two processes: the (step, mb, kb) columns of the gemm kernels table are the same — a blocking is a function of the shape and the tier, never of a clock)"
for run in a b; do
    cargo run --release -q -p gcd2 --bin gcd2c -- resnet-50 --infer 1 \
        | awk '/gemm kernels/ { on = 1; next } /direct kernels/ { on = 0 } on { print $1, $5, $6 }' > target/blocks-$run.txt
done
test -s target/blocks-a.txt
diff target/blocks-a.txt target/blocks-b.txt

echo "==> group kernels in a whole plan (tinybert --infer 3, on the auto-detected tier and under GCD2_FORCE_SCALAR=1: the portable forms run every Softmax and LayerNorm step on both, bit-identical to the interpreter, and the time-by-kind table gives both a bytes-per-ns rate)"
for scalar in 0 1; do
    GCD2_FORCE_SCALAR=$scalar cargo run --release -q -p gcd2 --bin gcd2c -- tinybert --infer 3 > target/group-kernels-$scalar.txt
    grep -q "bit-identical: true" target/group-kernels-$scalar.txt
    for kind in Softmax LayerNorm; do
        grep -Eq "^    $kind +[0-9]+ steps .* B/ns$" target/group-kernels-$scalar.txt
    done
done

echo "==> epilogue maps in a whole plan (tinybert --infer 3 on the auto-detected tier, under GCD2_AMX=0 and under GCD2_FORCE_SCALAR=1: the 37 bias Adds, 6 Pows and 7 Gelus run in their GEMM's requantisation as one byte map each, and no step reads the 37 bias constants — bit-identical to the interpreter on every tier)"
for tier in "" GCD2_AMX=0 GCD2_FORCE_SCALAR=1; do
    env $tier cargo run --release -q -p gcd2 --bin gcd2c -- tinybert --infer 3 > target/epilogue.txt
    grep -q "bit-identical: true" target/epilogue.txt
    grep -q "^  folded       : 50 steps into GEMM requantisation (37 Add, 6 Pow, 7 Gelu), 37 constants unread$" target/epilogue.txt
done

echo "==> no fault injection anywhere (nothing in crates/, src/, tests/, examples/ or a Cargo.toml names gcd2_faults, gcd2-faults, fault-injection, GCD2_CHAOS_SEED or InferServer::start: each panic guard is tested directly, and the gateway's real-thread smokes hand it a test runner)"
if grep -rEn 'gcd2_faults|gcd2-faults|fault-injection|GCD2_CHAOS_SEED|InferServer::start' \
    crates src tests examples Cargo.toml; then exit 1; fi

echo "==> gateway explorer, largest configuration (every interleaving of 3 workers and 4 tickets, one fault — a panic in every request of a batch or in its first alone — at every position, no retry round, demotion or batching window to walk; ≈ 6.6 k states; release)"
cargo test --release -q --test gateway_scenarios -- --ignored --nocapture \
    every_interleaving_of_three_workers_and_four_tickets | grep "^explored"

echo "==> the gateway core is sans-I/O (no std::thread, std::sync, Instant or Condvar in crates/core/src/serve/)"
if grep -En "std::thread|std::sync|Instant|Condvar" crates/core/src/serve/*.rs; then exit 1; fi

echo "==> circuit-breaker property suite (reference-model equivalence)"
cargo test -q --test breaker_property

echo "==> artifact round-trip + hostile-corpus suites"
cargo test -q --test artifact_roundtrip
cargo test -q --test artifact_hostile

echo "==> the checksum, the round-trip and the hostile corpus on the scalar tier (GCD2_FORCE_SCALAR=1: a stored value may not depend on the tier that wrote it — the checked-in golden and corpus were written on a vector tier)"
GCD2_FORCE_SCALAR=1 cargo test -q -p gcd2-artifact
GCD2_FORCE_SCALAR=1 cargo test -q --test artifact_roundtrip --test artifact_hostile

echo "==> clippy unwrap/expect deny gate (gcd2 + gcd2-globalopt + gcd2-kernels + gcd2-analyze + gcd2-artifact lib paths)"
cargo clippy -q -p gcd2 -p gcd2-globalopt -p gcd2-kernels -p gcd2-analyze -p gcd2-artifact --lib -- -D warnings

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
