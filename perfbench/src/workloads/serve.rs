//! `serve_open` and `serve_saturated`: the in-process gateway with
//! tinybert and mobilenet-v3 registered and a 3:1 request mix, driven
//! by one client thread (the host has two cores and the gateway two
//! workers of its own).
//!
//! `serve_open` is an open loop — independent users: seeded jittered
//! arrivals (`stats::jittered_schedule`) at two fixed rates, each
//! request timed from when it was *due*, so a stall charges the requests
//! behind it. First 8 req/s, where batches have size one and latency is
//! service time plus gateway overhead; then 20 req/s, where queues form
//! and batching starts. The gated arms are taken at 20 req/s: the
//! primary is tinybert's median latency (three requests in four), the
//! secondary both models' medians, geomean weighted like the mix. The
//! heavy model alone (35 requests) and the whole 8 req/s phase (24) are
//! per-layer diagnostics (`serve.hi_heavy_p50_ms`, `serve.lo_p50_ms`,
//! `serve.gateway_overhead_ms`): with so few requests they spread by a
//! fifth over ten seeds, too close to the widest bound to gate.
//! `good_share` is the share of all requests answered correctly within
//! [`LIMIT_MS`] of their due time.
//!
//! `serve_saturated` is a closed loop — [`OUTSTANDING`] callers that
//! each wait for a reply: queues are never empty and batches are full,
//! so it measures throughput. The primary arm is the default gateway,
//! the secondary a control gateway with `max_batch = 1`.
//!
//! The client thread also runs the calibration kernel, and a phase's
//! latencies and wall time are scaled by all the kernel runs inside the
//! phase. In the open loop it runs only while no request is in flight
//! and none is due for [`QUIET_GAP`], so it takes nothing from the
//! gateway. The closed loop has no such gaps (draining to make some
//! left mostly ramp-up and drain to measure), so there it runs every
//! [`CALIBRATE_BUSY_EVERY`] beside the busy workers — 6 ms to 9 ms in
//! every 100 ms on one of two cores, the same load on every commit — and
//! is read by its CPU time, corrected for steal (`calib.rs`).

use super::RunResult;
use crate::calib::Calibrator;
use crate::host;
use crate::metrics::{Layers, Probes};
use crate::setup::{ms, Model, Prepared, Tally};
use crate::stats::{jittered_schedule, median, model_mix, percentile, sorted, Rng};
use crate::trace::Tracer;
use gcd2::{ExecOptions, GatewayConfig, InferError, InferServer, InferTicket, ServerStats};
use std::time::{Duration, Instant};

/// Latency limit of `serve_open`, from a request's due time.
pub const LIMIT_MS: f64 = 400.0;
/// Offered rates of the two open-loop phases, requests per second.
/// Measured capacity on the recording host is about 35 req/s.
const LO_RATE: f64 = 8.0;
const HI_RATE: f64 = 20.0;
/// Share of the run given to the first phase of each workload.
const LO_SHARE: f64 = 0.3;
const BATCHED_SHARE: f64 = 0.5;
/// Callers of the closed loop.
const OUTSTANDING: usize = 16;
/// How often the client thread looks at its tickets. It sleeps in
/// between, so it does not take a core from the gateway's workers.
const POLL: Duration = Duration::from_micros(200);
const BARE_RUNS: usize = 10;
/// The open loop calibrates only when the next request is at least this
/// far off (a kernel run takes 6 ms to 9 ms), and at most this often.
const QUIET_GAP: Duration = Duration::from_millis(12);
const CALIBRATE_EVERY: Duration = Duration::from_millis(40);
/// How often the kernel runs while the closed loop keeps the gateway
/// busy.
const CALIBRATE_BUSY_EVERY: Duration = Duration::from_millis(100);

enum Pacing<'a> {
    /// Send request `i` at `due[i]` seconds, whatever came back so far.
    Open { due: &'a [f64] },
    /// Keep `OUTSTANDING` requests in flight for `seconds`.
    Closed { seconds: f64 },
}

struct Answer {
    model: usize,
    latency_ms: f64,
    lag_ms: f64,
    ok: bool,
}

struct Pending {
    ticket: InferTicket,
    model: usize,
    input: usize,
    due: Instant,
    op: u64,
}

/// Drives one phase and returns every request's outcome and the wall
/// time from the phase's start to its last answer. Requests are
/// numbered from `first_op + 1`, so spans of different phases differ.
fn drive(
    server: &InferServer,
    models: &[Model],
    pacing: &Pacing,
    mix: &[usize],
    first_op: u64,
    cal: &mut Calibrator,
    tr: &mut Tracer,
) -> (Vec<Answer>, f64) {
    let start = Instant::now();
    let mut pending: Vec<Pending> = Vec::new();
    let mut answers = Vec::new();
    let mut sent = vec![0usize; models.len()];
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        let mut more = true;
        // How long until the next request is due, when that is known.
        let mut gap = Duration::ZERO;
        loop {
            let due = match pacing {
                Pacing::Open { due } => match due.get(next) {
                    Some(&d) => start + Duration::from_secs_f64(d),
                    None => {
                        more = false;
                        gap = Duration::MAX;
                        break;
                    }
                },
                Pacing::Closed { seconds } => {
                    if now.duration_since(start).as_secs_f64() >= *seconds {
                        more = false;
                        break;
                    }
                    if pending.len() >= OUTSTANDING {
                        break;
                    }
                    now
                }
            };
            if due > now {
                gap = due - now;
                break;
            }
            let model = mix[next % mix.len()];
            let input = sent[model] % models[model].inputs.len();
            sent[model] += 1;
            next += 1;
            let op = first_op + next as u64;
            let s = tr.begin("serve.submit_to", op);
            let ticket =
                server.submit_to(&models[model].name, models[model].inputs[input].clone(), 0);
            tr.end(s);
            // The answer slot is reserved at submission, in order; a
            // request refused at the door keeps it as a miss.
            answers.push(Answer {
                model,
                latency_ms: f64::INFINITY,
                lag_ms: ms(Instant::now() - due),
                ok: false,
            });
            if let Ok(ticket) = ticket {
                pending.push(Pending {
                    ticket,
                    model,
                    input,
                    due,
                    op,
                });
            }
        }
        pending.retain(|p| {
            let result = match p.ticket.wait_timeout(Duration::ZERO) {
                Err(InferError::DeadlineExceeded { .. }) => return true,
                other => other,
            };
            let seen = Instant::now();
            tr.record("serve.request", p.op, p.due, seen);
            let slot = &mut answers[(p.op - first_op) as usize - 1];
            slot.latency_ms = ms(seen - p.due);
            slot.ok = matches!(&result, Ok(out) if *out == models[p.model].expected[p.input]);
            false
        });
        if !more && pending.is_empty() {
            break;
        }
        let rested = |every| cal.last_run().is_none_or(|at| at.elapsed() >= every);
        let calibrate = match pacing {
            Pacing::Open { .. } => {
                pending.is_empty() && gap >= QUIET_GAP && rested(CALIBRATE_EVERY)
            }
            Pacing::Closed { .. } => rested(CALIBRATE_BUSY_EVERY),
        };
        if calibrate {
            cal.sample_ms();
        } else {
            std::thread::sleep(POLL);
        }
    }
    (answers, start.elapsed().as_secs_f64())
}

/// Median latency of a bare `try_execute_into` per model on this
/// thread, default options: what the gateway's answer times are held
/// against. Also leaves every kernel shape tuned before the gateway runs.
fn bare_execute_ms(models: &[Model], tally: &mut Tally) -> Vec<f64> {
    let opts = ExecOptions::default();
    let mut out = Vec::new();
    models
        .iter()
        .map(|m| {
            let mut arena = m.plan().new_arena();
            let times: Vec<f64> = (0..=BARE_RUNS)
                .map(|_| {
                    let t0 = Instant::now();
                    let r = m
                        .plan()
                        .try_execute_into(&m.inputs[0], &mut arena, &mut out, &opts);
                    let t = ms(t0.elapsed());
                    tally.check(r.is_ok() && out == m.expected[0], || {
                        format!("{}: bare answer differs from execute_reference", m.name)
                    });
                    t
                })
                .collect();
            median(&times[1..])
        })
        .collect()
}

/// [`bare_execute_ms`] between two kernel runs: the scaled medians, the
/// factor that scaled them, and the scaled seconds it took (part of
/// `setup_s`).
fn scaled_bare_ms(
    models: &[Model],
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> (Vec<f64>, f64, f64) {
    cal.sample_ms();
    let t0 = Instant::now();
    let mut bare = bare_execute_ms(models, tally);
    let raw_s = t0.elapsed().as_secs_f64();
    let f = cal.factor_to_here();
    bare.iter_mut().for_each(|b| *b *= f);
    (bare, f, raw_s * f)
}

/// A run without injected faults must not need the supervisor.
fn check_supervisor_idle(totals: &ServerStats, tally: &mut Tally) {
    tally.check(totals.hung == 0 && totals.retries == 0, || {
        format!(
            "supervisor intervened: {} hung, {} retries",
            totals.hung, totals.retries
        )
    });
}

fn gateway(models: &[Model], config: GatewayConfig, tally: &mut Tally) -> InferServer {
    let server = InferServer::gateway(config);
    for m in models {
        let registered = server.register(&m.name, m.plan().clone());
        tally.check(registered.is_ok(), || {
            format!("{}: registration refused", m.name)
        });
    }
    server
}

/// Bare median weighted by the request mix (three in four to model 0).
fn mix_weighted(bare: &[f64]) -> f64 {
    0.75 * bare[0] + 0.25 * bare[1]
}

/// The answered latencies of one model.
fn latencies_of(answers: &[Answer], model: usize) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.model == model && a.latency_ms.is_finite())
        .map(|a| a.latency_ms)
        .collect()
}

/// Geomean of two per-model values weighted by the request mix (three
/// in four to model 0): a model asked for three times as often has three
/// times the samples behind its median, and counts three times.
fn mix_geomean(per_model: &[f64]) -> f64 {
    (0.75 * per_model[0].ln() + 0.25 * per_model[1].ln()).exp()
}

fn latencies(answers: &[Answer]) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.latency_ms.is_finite())
        .map(|a| a.latency_ms)
        .collect()
}

/// Every latency over the median of its own model within the phase.
fn tail_ratios(answers: &[Answer], models: usize, into: &mut Vec<f64>) {
    for model in 0..models {
        let own = latencies_of(answers, model);
        let p50 = median(&own);
        into.extend(own.iter().map(|v| v / p50));
    }
}

/// The gateway's own counters, once its last phase has drained.
fn gateway_layers(server: InferServer, layers: &mut Layers) -> ServerStats {
    let per_model = server.all_model_stats();
    let totals = server.shutdown();
    // Three requests in four go to the first model; its histograms stand
    // for the gateway. They resolve to powers of two of a microsecond.
    if let Some(first) = per_model.first() {
        layers.add("serve.queue_wait_p50_ms", ms(first.queue_wait.p50));
        layers.add("serve.assembly_p50_ms", ms(first.assembly.p50));
        layers.add("serve.exec_p50_ms", ms(first.execute.p50));
    }
    let largest = per_model.iter().map(|s| s.max_batch_observed).max();
    layers.add("serve.batches", totals.batches as f64);
    layers.add(
        "serve.mean_batch",
        totals.batched_requests as f64 / (totals.batches as f64).max(1.0),
    );
    layers.add("serve.max_batch", largest.unwrap_or(0) as f64);
    layers.add("serve.accepted", totals.accepted as f64);
    layers.add("serve.shed", totals.shed as f64);
    layers.add("serve.rejected", totals.rejected as f64);
    layers.add("serve.retries", totals.retries as f64);
    layers.add("serve.hung", totals.hung as f64);
    totals
}

pub fn run_open(prep: &Prepared, seconds: f64, rng: &mut Rng, probes: &mut Probes) -> RunResult {
    let Probes { cal, tr, layers } = probes;
    let models = &prep.models;
    let mut tally = Tally::default();
    let (bare, f, mut preamble_s) = scaled_bare_ms(models, cal, &mut tally);
    let t0 = Instant::now();
    let server = gateway(models, GatewayConfig::default(), &mut tally);
    preamble_s += t0.elapsed().as_secs_f64() * f;

    let mut phases = Vec::new();
    let mut raw_hi = Vec::new();
    let mut wall = 0.0;
    for (rate, share) in [(LO_RATE, LO_SHARE), (HI_RATE, 1.0 - LO_SHARE)] {
        let n = (rate * share * seconds).round().max(1.0) as usize;
        let due = jittered_schedule(rng, rate, n);
        let mix = model_mix(rng, n);
        let sent: usize = phases.iter().map(Vec::len).sum();
        let pacing = Pacing::Open { due: &due };
        let calibrated = cal.mark() - 1;
        let (mut answers, phase_wall) = drive(&server, models, &pacing, &mix, sent as u64, cal, tr);
        cal.sample_ms();
        // The host's state changes faster than requests arrive, and per
        // core, so one request's neighbours in time say little about it;
        // the phase is scaled by all the kernel runs inside it.
        let f = cal.factor_since(calibrated);
        raw_hi = (0..models.len())
            .map(|m| median(&latencies_of(&answers, m)))
            .collect();
        answers.iter_mut().for_each(|a| a.latency_ms *= f);
        wall += phase_wall;
        phases.push(answers);
    }
    let totals = gateway_layers(server, layers);

    let mut correct = 0u64;
    let mut ratios = Vec::new();
    for answers in &phases {
        for a in answers {
            tally.attempted += 1;
            if !a.ok {
                tally.failed += 1;
            } else {
                correct += 1;
                // A late answer is not a failure, but it misses the limit.
                tally.good += u64::from(a.latency_ms <= LIMIT_MS);
            }
        }
        tail_ratios(answers, models.len(), &mut ratios);
    }
    let p50 = |phase: &[Answer]| -> Vec<f64> {
        (0..models.len())
            .map(|m| median(&latencies_of(phase, m)))
            .collect()
    };
    let (lo, hi) = (p50(&phases[0]), p50(&phases[1]));
    let hi_all = sorted(&latencies(&phases[1]));
    let lag = phases
        .iter()
        .flatten()
        .map(|a| a.lag_ms)
        .fold(0.0, f64::max);
    layers.add("serve.lo_p50_ms", mix_geomean(&lo));
    layers.add("serve.hi_heavy_p50_ms", hi[1]);
    layers.add("serve.p90_ms", percentile(&hi_all, 0.9));
    layers.add("serve.p95_ms", percentile(&hi_all, 0.95));
    layers.add("serve.generator_lag_max_ms", lag);
    layers.add(
        "serve.gateway_overhead_ms",
        mix_geomean(&lo) - mix_geomean(&bare),
    );
    layers.add("infer.exec_p50_ms", mix_geomean(&bare));
    check_supervisor_idle(&totals, &mut tally);
    RunResult {
        tally,
        preamble_s,
        primary_ms: hi[0],
        secondary_ms: mix_geomean(&hi),
        raw_primary_ms: raw_hi[0],
        raw_secondary_ms: mix_geomean(&raw_hi),
        // Arrivals follow the clock, not the host's speed: the rate
        // answered is the rate offered unless the gateway falls behind.
        throughput: correct as f64 / wall,
        tail_ratios: ratios,
    }
}

pub fn run_saturated(
    prep: &Prepared,
    seconds: f64,
    rng: &mut Rng,
    probes: &mut Probes,
) -> RunResult {
    let Probes { cal, tr, layers } = probes;
    let models = &prep.models;
    let mut tally = Tally::default();
    let (bare, f, mut preamble_s) = scaled_bare_ms(models, cal, &mut tally);
    let mix = model_mix(rng, 64);

    let control = GatewayConfig {
        max_batch: 1,
        ..GatewayConfig::default()
    };
    let mut sent = 0u64;
    let mut p50 = Vec::new();
    let mut raw_p50 = Vec::new();
    let mut rps = Vec::new();
    let mut ratios = Vec::new();
    for (config, share) in [
        (GatewayConfig::default(), BATCHED_SHARE),
        (control, 1.0 - BATCHED_SHARE),
    ] {
        let t0 = Instant::now();
        let server = gateway(models, config, &mut tally);
        preamble_s += t0.elapsed().as_secs_f64() * f;
        let pacing = Pacing::Closed {
            seconds: share * seconds,
        };
        let calibrated = cal.mark();
        let jiffies = host::cpu_jiffies();
        let (mut answers, wall) = drive(&server, models, &pacing, &mix, sent, cal, tr);
        sent += answers.len() as u64;
        let steal = host::steal_share(jiffies, host::cpu_jiffies());
        let f = cal.busy_factor_since(calibrated, steal);
        let raw = latencies(&answers);
        answers.iter_mut().for_each(|a| a.latency_ms *= f);
        let scaled_s = wall * f;
        raw_p50.push(median(&raw));
        // The first gateway is the one under test; the control's
        // counters are not reported.
        let totals = if p50.is_empty() {
            gateway_layers(server, layers)
        } else {
            server.shutdown()
        };
        check_supervisor_idle(&totals, &mut tally);
        let mut correct = 0u64;
        for a in &answers {
            tally.check(a.ok, || {
                format!("{}: wrong or refused", models[a.model].name)
            });
            correct += u64::from(a.ok);
        }
        p50.push(median(&latencies(&answers)));
        rps.push(correct as f64 / scaled_s);
        tail_ratios(&answers, models.len(), &mut ratios);
    }
    layers.add("serve.batch_gain", rps[0] / rps[1]);
    layers.add("serve.vs_bare_execute", rps[0] * mix_weighted(&bare) / 1e3);
    layers.add("infer.exec_p50_ms", mix_geomean(&bare));
    RunResult {
        tally,
        preamble_s,
        primary_ms: p50[0],
        secondary_ms: p50[1],
        raw_primary_ms: raw_p50[0],
        raw_secondary_ms: raw_p50[1],
        throughput: rps[0],
        tail_ratios: ratios,
    }
}
