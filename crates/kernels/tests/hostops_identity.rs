//! Bit-identity gate for the group kernels, `hostops::softmax_into` and
//! `hostops::layernorm_into`.
//!
//! The plan-vs-interpreter differentials cannot catch a wrong form of
//! these kernels: both executors call `hostops`. So this suite keeps the
//! forms they replaced as oracles — softmax's `u64` reciprocal per byte,
//! layernorm's `i32` clamp — and holds to them the kernels under a
//! thread-scoped `pin_isa` at every tier the host supports (scalar
//! included). Each kernel has one portable form
//! that every tier runs; the tiers are here so a tier-selected form
//! added later is held to the oracle from its first build.
//!
//! Inputs: every group length 1..=320 plus 4096 and 4097, each over
//! two and a half groups (a ragged last group); all-zero, all-255,
//! full-range and activation-range (`0..=15`) bytes; `act_max` ∈ {0, 1,
//! 15, 16, 255} — 16 is the widest the `u16`-lane pass takes, 255 the
//! shape guard that divides per byte.
//!
//! The suite bites (each mutation tried, first failure named): with the
//! magic one below its round-up (`⌈2^(12+ℓ)/d⌉ − 1`), group length 1
//! over all-255 bytes at `act_max` 1 — `255 · 1 / 255` reads 0; with
//! the ragged last group dropped (`chunks_exact` in the group loop),
//! group length 2 over 5 bytes (the stale `0xAA`s survive).

use gcd2_kernels::{hostops, pin_isa, KernelIsa};

/// The pre-PR softmax: one `u64` reciprocal per group, a `u64` multiply
/// per byte — `(v · act_max · (⌊2³²/sum⌋ + 1)) >> 32`, which equals
/// `v · act_max / sum` for every byte and sum.
fn softmax_oracle(x: &[u8], group: usize, act_max: u8) -> Vec<u8> {
    let group = group.max(1);
    let mut out = Vec::with_capacity(x.len());
    for chunk in x.chunks(group) {
        let sum = chunk.iter().map(|&v| v as u32).sum::<u32>().max(1);
        let scale = act_max as u64 * ((1u64 << 32) / sum as u64 + 1);
        out.extend(chunk.iter().map(|&v| ((v as u64 * scale) >> 32) as u8));
    }
    out
}

/// The pre-PR layernorm: `clamp(v − mean + (act_max + 1)/2, 0, act_max)`
/// in `i32`.
fn layernorm_oracle(x: &[u8], group: usize, act_max: u8) -> Vec<u8> {
    let group = group.max(1);
    let mid = (act_max as i32 + 1) / 2;
    let mut out = Vec::with_capacity(x.len());
    for chunk in x.chunks(group) {
        let sum: u32 = chunk.iter().map(|&v| v as u32).sum();
        let mean = (sum / chunk.len() as u32) as i32;
        out.extend(
            chunk
                .iter()
                .map(|&v| (v as i32 - mean + mid).clamp(0, act_max as i32) as u8),
        );
    }
    out
}

type Kernel = fn(&[u8], usize, u8, &mut [u8]);
type Oracle = fn(&[u8], usize, u8) -> Vec<u8>;

const KERNELS: [(&str, Kernel, Oracle); 2] = [
    ("softmax", hostops::softmax_into, softmax_oracle),
    ("layernorm", hostops::layernorm_into, layernorm_oracle),
];

/// Every tier this host can run, the scalar oracle first.
fn tiers() -> Vec<KernelIsa> {
    KernelIsa::ALL
        .into_iter()
        .filter(|isa| isa.supported())
        .collect()
}

fn mix(i: usize, seed: u64) -> u64 {
    let mut h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed);
    h ^= h >> 31;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 24
}

/// The byte patterns: all-zero, all-255, full-range and the runtime's
/// activation range.
fn patterns(len: usize, seed: u64) -> [(&'static str, Vec<u8>); 4] {
    let seeded = |modulus: u64| (0..len).map(|i| (mix(i, seed) % modulus) as u8).collect();
    [
        ("zero", vec![0; len]),
        ("255", vec![255; len]),
        ("full", seeded(256)),
        ("act", seeded(16)),
    ]
}

/// Every tier's form == the oracle, for every kernel, pattern and
/// `act_max`, over `x` cut into groups of `group`.
fn assert_identity(group: usize, len: usize) {
    for (pattern, x) in patterns(len, group as u64) {
        for act_max in [0u8, 1, 15, 16, 255] {
            for (name, kernel, oracle) in KERNELS {
                let want = oracle(&x, group, act_max);
                let case = format!("{name} group={group} len={len} {pattern} act_max={act_max}");
                // Stale bytes in the destination must not survive.
                let mut got = vec![0xAA; len];
                for tier in tiers() {
                    let _pin = pin_isa(tier);
                    got.fill(0xAA);
                    kernel(&x, group, act_max, &mut got);
                    assert_eq!(got, want, "{tier}: {case}");
                }
            }
        }
    }
}

/// Every group length up to 320 — below, at and past a 32-byte vector,
/// tinybert's 128 and 312 — two and a half groups each.
#[test]
fn group_lengths_to_320_are_bit_identical() {
    for group in 1..=320 {
        assert_identity(group, 2 * group + group.div_ceil(2));
    }
}

/// Groups past the `u16` chunk of the byte reduction (128 bytes) many
/// times over, where a group of 255s sums past 2¹⁶ and the activation
/// range past 2¹² (the quotient is 0 there).
#[test]
fn long_groups_are_bit_identical() {
    for group in [4096, 4097] {
        assert_identity(group, 2 * group + group / 2);
    }
}

/// Throughput probe, not a gate (run explicitly):
/// `cargo test -p gcd2-kernels --release --test hostops_identity --
/// --ignored group_kernels_ns_per_byte --nocapture`. ns per byte of the
/// portable form (under a scalar `pin_isa`) and of the form each tier this
/// host supports selects, at tinybert's two shapes — softmax over 1536
/// groups of 128, layernorm over 128 groups of 312 — on activation-range
/// bytes at the runtime's `act_max` 15, best of 200 calls. DESIGN.md
/// §4e (*Group kernels*) quotes it.
#[test]
#[ignore = "perf evidence; run manually in release mode"]
fn group_kernels_ns_per_byte() {
    let best_ns_per_byte = |kernel: Kernel, x: &[u8], group: usize| {
        let mut out = vec![0u8; x.len()];
        let best = (0..200).fold(f64::MAX, |best, _| {
            let t0 = std::time::Instant::now();
            kernel(std::hint::black_box(x), group, 15, &mut out);
            std::hint::black_box(&out);
            best.min(t0.elapsed().as_secs_f64())
        });
        best * 1e9 / x.len() as f64
    };
    let shapes = [
        ("softmax", hostops::softmax_into as Kernel, 1536, 128),
        ("layernorm", hostops::layernorm_into as Kernel, 128, 312),
    ];
    for (name, kernel, groups, group) in shapes {
        let x: Vec<u8> = (0..groups * group)
            .map(|i| (mix(i, 7) % 16) as u8)
            .collect();
        let portable = {
            let _pin = pin_isa(KernelIsa::Scalar);
            best_ns_per_byte(kernel, &x, group)
        };
        println!("{name} {groups}x{group}: portable {portable:.3} ns/B");
        let vector = |isa: &KernelIsa| isa.supported() && *isa != KernelIsa::Scalar;
        for isa in KernelIsa::ALL.into_iter().filter(vector) {
            let _pin = pin_isa(isa);
            let t = best_ns_per_byte(kernel, &x, group);
            println!("{name} {groups}x{group}: {isa} {t:.3} ns/B");
        }
    }
}
