#!/usr/bin/env bash
# Local CI gate: everything a change must pass before it lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace (every suite whose bytes pass through a kernel tier builds and runs its plans on every tier the host supports, in-process through pin_isa: scalar row panels, AVX2 i16 pairs, VNNI and AMX quads — the kernel identity suites, the direct conv, the layout differentials on all ten models, the exhaustive every-assignment differential, the batch gate's calling-thread paths, the golden artifact and the hostile corpus, tinybert's folds and group kernels)"
cargo test --workspace -q

echo "==> the compiler and the executor are plain code with one panic guard and one tier override, the thread-scoped pin_isa (gcd2-par holds only default_threads; no catch_unwind outside comments and #[cfg(test)] in any crate's src but crates/core/src; no retry, ISA demotion, environment tier override, batching window (max_wait), compile budget, deadline or middle selection rung anywhere in crates/, src/, tests/ or examples/; no crate's src reads the environment; the kernels keep no process-wide tier and every kernel form choice reads active_isa — only dispatch.rs calls detected_isa; and GCD2 selection reads no clock: its one limit is a state count)"
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
if grep -rEn 'GCD2_(FORCE_SCALAR|AMX)' crates src tests examples ci.sh; then exit 1; fi
if grep -rn 'env::var' crates/*/src; then exit 1; fi
if grep -rn 'detected_isa(' crates/kernels/src --exclude=dispatch.rs; then exit 1; fi

echo "==> a GEMM multiplies the panel its plan packed (no matmul_blocked_into, PanelSource, panel_resident or WeightPanel refill in crates/, src/, tests/ or examples/: try_matmul_panel_into is the one GEMM core, and a panel whose form the resolved tier does not read is refused, never read back and repacked for the call)"
if grep -rEn 'matmul_blocked_into|PanelSource|panel_resident|fn refill' crates src tests examples; then exit 1; fi

echo "==> cold start has one concurrency rule, the artifact cache's atomic rename (no try_lock, CacheLock, LOCK_LOSER or LOCK_SUFFIX in crates/, src/, tests/ or examples/: a key fixes its bytes, so concurrent builders need no lock, and each store's temp name is unique per writer; and no paranoid execution option: a caller who wants the integrity check calls verify_integrity, as the gateway does at admission)"
if grep -rEn 'try_lock|CacheLock|LOCK_LOSER|LOCK_SUFFIX|paranoid' crates src tests examples; then exit 1; fi

echo "==> dependence checks read register sets (no Vec<Reg> in crates/hvx/src or crates/vliw/src: Insn::defs/uses are a u64 RegSet, and classify, the packers and the simulator's stale-read check intersect them without allocating)"
if grep -rn 'Vec<Reg>' crates/hvx/src crates/vliw/src; then exit 1; fi

echo "==> the PBQP solver hashes nothing (no HashMap in crates/globalopt/src/pbqp.rs: its edge matrices are dense arrays reached through each node's adjacency entry, and its live nodes wait in degree worklists; the hash-map form is the test-only oracle pbqp/reference.rs)"
if grep -n 'HashMap' crates/globalopt/src/pbqp.rs; then exit 1; fi

echo "==> the timing kernel formats no label on a cost-cache miss (no format! in crates/kernels/src/matmul.rs: its block labels are MatmulLabel values, turned into text only where a program is displayed)"
if grep -n 'format!' crates/kernels/src/matmul.rs; then exit 1; fi

echo "==> no error is built eagerly in the graph IR (gcd2-cgraph warns on clippy::or_fun_call, which the clippy steps below deny: an ok_or(ShapeError { op: op(), .. }) formats the operator's name on every successful call)"
grep -q '^#!\[warn(clippy::or_fun_call)\]' crates/cgraph/src/lib.rs

echo "==> one narrowing idiom in the AVX-512 epilogues (the AMX block epilogue, the VNNI and one-row requantisation and the depthwise rows kernel share the pack chain of simd::x86 — no per-16-lane vpmovusdb store is left in crates/kernels/src)"
if grep -rn 'cvtusepi32_storeu_epi8' crates/kernels/src; then exit 1; fi

echo "==> the weight generator and the quad pack against their oracles (weight_synthesis_ns_per_weight and weight_install_ns_per_weight over resnet-50's GEMM matrices, ≈ 0.5 s in release: every form — the plain generator, the AVX-512 kernel, the SSE2 quad pack, whole-matrix and k-tile installs, the pack on resident panels — must write the per-element oracle's bytes and the same packed panels, so the intrinsic kernels the plan build and the artifact load run are checked here and not only when someone reads the probe)"
cargo test -p gcd2-kernels --release -q --lib -- --ignored weight_synthesis_ns_per_weight weight_install_ns_per_weight

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

echo "==> artifact emit → load smoke (resnet-50: every stage of the load ledger is printed — no weights copy: the panels are packed from the borrowed section a k-tile at a time — the weight stages with a B/ns rate, and the stages cover the reported wall clock to within 10 %; emitting twice gives the same bytes with the pinned integrity checksum, and so does every tier the host supports in one process — 25.5 MB of weights read back from the quad panels against the row-major bytes of the scalar tier, synthesised by the row generator's AVX-512 kernel and plain form on an AVX-512 host; release; a format-6 artifact is refused as a version skew)"
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
# A second process emits the same bytes, and so does every tier; the artifact an earlier format wrote is a named skew and exit 1, never a panic.
cargo run --release -q -p gcd2 --bin gcd2c -- resnet-50 --emit target/ci-resnet-50-again.gcd2art > /dev/null
cmp target/ci-resnet-50.gcd2art target/ci-resnet-50-again.gcd2art
grep -q "^emitted .*, integrity 0x6241cf526ebe7984$" target/emit.txt
cargo test --release -q --test artifact_roundtrip -- --ignored resnet_50_artifact_is_the_same_on_every_tier
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

echo "==> group kernels and epilogue maps in a whole plan (tinybert --infer 3 on the detected tier: the portable forms run every Softmax and LayerNorm step, the time-by-kind table gives both a bytes-per-ns rate, the 37 bias Adds, 6 Pows and 7 Gelus run in their GEMM's requantisation as one byte map each, no step reads the 37 bias constants, and the answer is bit-identical to the interpreter; epilogue_fold holds the folds and the answer on every other tier in-process)"
cargo run --release -q -p gcd2 --bin gcd2c -- tinybert --infer 3 > target/tinybert.txt
grep -q "bit-identical: true" target/tinybert.txt
for kind in Softmax LayerNorm; do
    grep -Eq "^    $kind +[0-9]+ steps .* B/ns$" target/tinybert.txt
done
grep -q "^  folded       : 50 steps into GEMM requantisation (37 Add, 6 Pow, 7 Gelu), 37 constants unread$" target/tinybert.txt

echo "==> no fault injection anywhere (nothing in crates/, src/, tests/, examples/ or a Cargo.toml names gcd2_faults, gcd2-faults, fault-injection, GCD2_CHAOS_SEED or InferServer::start: each panic guard is tested directly, and the gateway's real-thread smokes hand it a test runner)"
if grep -rEn 'gcd2_faults|gcd2-faults|fault-injection|GCD2_CHAOS_SEED|InferServer::start' \
    crates src tests examples Cargo.toml; then exit 1; fi

echo "==> gateway explorer, largest configuration (every interleaving of 3 workers and 4 tickets, one fault — a panic in every request of a batch or in its first alone — at every position, no retry round, demotion or batching window to walk; ≈ 6.6 k states; release)"
cargo test --release -q --test gateway_scenarios -- --ignored --nocapture \
    every_interleaving_of_three_workers_and_four_tickets | grep "^explored"

echo "==> the gateway core is sans-I/O (no std::thread, std::sync, Instant or Condvar in crates/core/src/serve/)"
if grep -En "std::thread|std::sync|Instant|Condvar" crates/core/src/serve/*.rs; then exit 1; fi

echo "==> clippy unwrap/expect deny gate (gcd2 + gcd2-globalopt + gcd2-kernels + gcd2-analyze + gcd2-artifact lib paths)"
cargo clippy -q -p gcd2 -p gcd2-globalopt -p gcd2-kernels -p gcd2-analyze -p gcd2-artifact --lib -- -D warnings

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
