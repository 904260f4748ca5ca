//! Per-layer probes for the traced run.
//!
//! Each probe times calls into one crate's public functions from outside,
//! on fixed inputs at the sizes of the heaviest grid points, and checks
//! what the calls return. Which end-to-end metric each probe should move
//! is listed in `README.md`.

use std::io::Cursor;
use std::time::Instant;

use bci_blackboard::runner::derive_trial_seed;
use bci_compression::sampling::{exchange_many, SamplerConfig};
use bci_core::experiments::e19_topology;
use bci_core::experiments::e6_sampling::controlled_pair;
use bci_core::experiments::registry::{point_seed, registry};
use bci_encoding::bitio::BitVec;
use bci_encoding::bitset::{BitSet, SparseBitSet};
use bci_fabric::pool::{JobPool, PoolConfig};
use bci_fabric::transport::{SessionContext, Transport, DISABLED_RECORDER};
use bci_fabric::InProcessTransport;
use bci_lowerbound::cic::cic_hard;
use bci_lowerbound::hard_dist::HardDist;
use bci_mux::load::LoadReport;
use bci_net::frame::{BroadcastFrame, Frame, FrameReader};
use bci_protocols::and_trees::sequential_and;
use bci_protocols::disj::{batched, disj_function};
use bci_protocols::msgpass::{P2pDisj, StarDisj};
use bci_protocols::sparse::run_sparse;
use bci_protocols::workload;
use bci_telemetry::hist::TURN_LATENCY_US_BOUNDS;
use bci_telemetry::Recorder;
use bci_topology::run_routed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::workloads::{self, Checks, Fabric, Latencies, Mux, Suite, Workload};

/// Repetitions of every probe.
pub const PROBE_REPS: usize = 3;

/// `fabric_inproc` sessions run and replayed per fabric probe repetition.
const FABRIC_SESSIONS: u64 = 5_000;

/// Sessions of the mux probe's `mux_serial`- and `mux_window`-shaped runs.
const MUX_SERIAL_SESSIONS: u64 = 1_000;
const MUX_WINDOW_SESSIONS: u64 = 10_000;

/// A named value with its unit.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit of `summary`.
    pub unit: &'static str,
    /// Value and spread.
    pub summary: Summary,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary: Summary::of(samples),
        }
    }
}

fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let began = Instant::now();
    let out = f();
    (began.elapsed().as_secs_f64(), out)
}

/// Runs `PROBE_REPS` repetitions of `f` inside spans named `name`.
fn reps<T>(spans: &mut Spans, name: &str, mut f: impl FnMut() -> T) -> Vec<T> {
    (0..PROBE_REPS)
        .map(|_| spans.span(name, None, |_, _| f()))
        .collect()
}

/// Runs every probe and returns the per-layer metrics.
pub fn run_all(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let mut out = core(seed, spans, checks);
    out.extend(e19_lanes(spans, checks));
    out.extend(kernels(spans, checks));
    out.extend(pool(spans, checks));
    out.extend(fabric(seed, spans, checks));
    out.extend(net(spans, checks));
    out.extend(telemetry(spans, checks));
    out.extend(mux(seed, spans, checks));
    out
}

/// core: each experiment's `run_grid_pooled` + `tables` +
/// `render_report` inside traced 1-worker passes, and the part of each
/// pass no experiment span covers.
fn core(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let mut suite = Suite::new(1, seed);
    suite.warm_up(spans, checks);
    let passes: Vec<(f64, Vec<f64>)> = (0..PROBE_REPS)
        .map(|_| {
            let rep = suite.rep(spans, checks);
            let Latencies::Samples(lat) = rep.latencies else {
                unreachable!("suite passes time each report")
            };
            (rep.wall_s * 1e3, lat.iter().map(|us| us / 1e3).collect())
        })
        .collect();
    let mut out: Vec<Metric> = registry()
        .iter()
        .enumerate()
        .map(|(i, exp)| {
            let ms: Vec<f64> = passes.iter().map(|(_, lat)| lat[i]).collect();
            Metric::median(format!("core.{}_ms", exp.id()), "ms", &ms)
        })
        .collect();
    let unattributed: Vec<f64> = passes
        .iter()
        .map(|(pass, lat)| pass - lat.iter().sum::<f64>())
        .collect();
    for (&u, (pass, _)) in unattributed.iter().zip(&passes) {
        // The experiment spans tile the pass: what they leave out is the
        // loop around them, never a share of the work.
        checks.record(1, u64::from(!(0.0..=0.05 * pass).contains(&u)), || {
            format!("core: {u:.3} ms of a {pass:.1} ms pass is outside the experiment spans")
        });
    }
    out.push(Metric::median("core.unattributed_ms", "ms", &unattributed));
    out
}

/// protocols + topology: e19's three lanes on e19's own instances.
fn e19_lanes(spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let mut instances: Vec<Vec<BitSet>> = Vec::new();
    let mut verified: Vec<(usize, usize, Vec<BitSet>, ChaCha8Rng)> = Vec::new();
    for (i, &(n, k)) in e19_topology::default_grid().iter().enumerate() {
        let point = point_seed(e19_topology::SEED, i);
        for t in 0..e19_topology::TRIALS {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_trial_seed(point, t));
            let inputs = workload::planted_zero_cover(n, k, 0.0, &mut rng);
            if t == 0 {
                verified.push((n, k, inputs.clone(), rng));
            }
            instances.push(inputs);
        }
    }
    let batched_ms: Vec<f64> = reps(spans, "probe.protocols.disj_batched", || {
        let (s, runs) = secs(|| {
            instances
                .iter()
                .map(|x| batched::run(x))
                .collect::<Vec<_>>()
        });
        let bad = runs.iter().filter(|r| !r.output).count() as u64;
        (s * 1e3, bad)
    })
    .into_iter()
    .map(|(ms, bad)| {
        checks.record(instances.len() as u64, bad, || {
            format!("protocols: batched DISJ called {bad} disjoint instances intersecting")
        });
        ms
    })
    .collect();
    let mut lane = |name: &str, star: bool| -> Vec<f64> {
        reps(spans, name, || {
            secs(|| {
                verified
                    .iter()
                    .filter(|(n, k, inputs, rng)| {
                        let (output, bits, expected) = if star {
                            let run = run_routed(&StarDisj::new(*n, *k), inputs, rng);
                            (
                                run.output,
                                run.stats.total_bits,
                                StarDisj::worst_case_bits(*n, *k),
                            )
                        } else {
                            let run = run_routed(&P2pDisj::new(*n, *k), inputs, rng);
                            (
                                run.output,
                                run.stats.total_bits,
                                P2pDisj::worst_case_bits(*n, *k),
                            )
                        };
                        !output || bits != expected
                    })
                    .count() as u64
            })
        })
        .into_iter()
        .map(|(s, bad)| {
            checks.record(verified.len() as u64, bad, || {
                format!("topology: {bad} {name} runs answered wrong or off the closed form")
            });
            s * 1e3
        })
        .collect()
    };
    let star_ms = lane("probe.topology.star_lane", true);
    let ring_ms = lane("probe.topology.ring_lane", false);
    vec![
        Metric::median("protocols.disj_batched_ms", "ms", &batched_ms),
        Metric::median("topology.star_lane_ms", "ms", &star_ms),
        Metric::median("topology.ring_lane_ms", "ms", &ring_ms),
    ]
}

/// Two disjoint `s`-subsets of `[n]`, as e12 draws them.
fn disjoint_pair(n: usize, s: usize, rng: &mut ChaCha8Rng) -> (SparseBitSet, SparseBitSet) {
    let mut x = SparseBitSet::new(n);
    let mut y = SparseBitSet::new(n);
    while x.len() < s {
        x.insert(rng.random_range(0..n));
    }
    while y.len() < s {
        let e = rng.random_range(0..n);
        if !x.contains(e) {
            y.insert(e);
        }
    }
    (x, y)
}

/// lowerbound, compression, protocols, blackboard: the kernels behind e2,
/// e6, e12 and e13 at their largest grid points.
fn kernels(spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let (tree, dist) = (sequential_and(512), HardDist::new(512));
    let cic: Vec<(f64, f64)> = reps(spans, "probe.lowerbound.cic_hard_k512", || {
        secs(|| cic_hard(&tree, &dist))
    });
    let bad = cic
        .iter()
        .filter(|(_, v)| !(v.is_finite() && *v > 0.0 && v.to_bits() == cic[0].1.to_bits()))
        .count() as u64;
    checks.record(PROBE_REPS as u64, bad, || {
        format!("lowerbound: cic_hard(k=512) not one positive value: {cic:?}")
    });

    let (eta, nu) = controlled_pair(4096, 0.99);
    let seeds: Vec<u64> = (0..200).map(|t| derive_trial_seed(0xE6, t)).collect();
    let config = SamplerConfig::default();
    let exchanges: Vec<(f64, usize)> = reps(spans, "probe.compression.exchange_many", || {
        let (s, runs) = secs(|| exchange_many(&eta, &nu, &config, &seeds));
        (s, runs.iter().map(|e| e.bits).sum())
    });
    let bad = exchanges.iter().filter(|e| e.1 != exchanges[0].1).count() as u64;
    checks.record(PROBE_REPS as u64, bad, || {
        format!("compression: exchange_many bit totals differ across repetitions: {exchanges:?}")
    });

    const SPARSE_CALLS: u64 = 16;
    let mut rng = ChaCha8Rng::seed_from_u64(0xE12);
    let (x, y) = disjoint_pair(1 << 24, 128, &mut rng);
    let sparse_us: Vec<f64> = reps(spans, "probe.protocols.run_sparse", || {
        let (s, bad) = secs(|| {
            (0..SPARSE_CALLS)
                .filter(|&j| {
                    let mut rng = ChaCha8Rng::seed_from_u64(derive_trial_seed(0xE12, j));
                    !run_sparse(&x, &y, &mut rng).output
                })
                .count() as u64
        });
        checks.record(SPARSE_CALLS, bad, || {
            format!("protocols: run_sparse called {bad} disjoint pairs intersecting")
        });
        s * 1e6 / SPARSE_CALLS as f64
    });

    let k = 2048;
    let tree = sequential_and(k);
    let inputs: Vec<Vec<bool>> = (0..=k).map(|z| (0..k).map(|i| i != z).collect()).collect();
    let walk_us: Vec<f64> = reps(spans, "probe.blackboard.tree_walk_k2048", || {
        let (s, bad) = secs(|| {
            inputs
                .iter()
                .filter(|x| {
                    let mass: f64 = tree
                        .transcript_support_given_input(x)
                        .iter()
                        .map(|l| l.1)
                        .sum();
                    (mass - 1.0).abs() > 1e-9
                })
                .count() as u64
        });
        checks.record(inputs.len() as u64, bad, || {
            format!("blackboard: {bad} tree walks with transcript mass != 1")
        });
        s * 1e6 / inputs.len() as f64
    });

    vec![
        Metric::median(
            "lowerbound.cic_hard_k512_ms",
            "ms",
            &cic.iter().map(|c| c.0 * 1e3).collect::<Vec<_>>(),
        ),
        Metric::median(
            "compression.exchange_many_ms",
            "ms",
            &exchanges.iter().map(|e| e.0 * 1e3).collect::<Vec<_>>(),
        ),
        Metric::median("protocols.run_sparse_us", "us", &sparse_us),
        Metric::median("blackboard.tree_walk_k2048_us", "us", &walk_us),
    ]
}

/// fabric: `JobPool` dispatch of no-op jobs, one job per queue entry.
fn pool(spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    const JOBS: u64 = 100_000;
    let points: Vec<u64> = (0..JOBS).collect();
    [1usize, 2]
        .into_iter()
        .map(|workers| {
            let pool = JobPool::new(PoolConfig {
                workers,
                batch_size: 1,
                ..PoolConfig::default()
            });
            let name = format!("fabric.pool_job_us_w{workers}");
            let us: Vec<f64> = reps(spans, &format!("probe.{name}"), || {
                let (s, run) = secs(|| pool.run(&points, 7, &|seed, &p| seed ^ p));
                let bad = run
                    .outputs
                    .iter()
                    .enumerate()
                    .filter(|&(i, &o)| o != derive_trial_seed(7, i as u64) ^ i as u64)
                    .count() as u64;
                checks.record(JOBS, bad, || {
                    format!("fabric: {bad} pool outputs out of order")
                });
                s * 1e6 / JOBS as f64
            });
            Metric::median(name, "us", &us)
        })
        .collect()
}

/// blackboard + fabric: the first [`FABRIC_SESSIONS`] `fabric_inproc`
/// sessions replayed one by one on `InProcessTransport`, against the
/// `monte_carlo_fabric` call that runs the same sessions.
fn fabric(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let fabric = Fabric::new(seed);
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut inputs_us = Vec::new();
    let mut overhead = Vec::new();
    let mut ns_per_turn = Vec::new();
    for _ in 0..PROBE_REPS {
        let (wall, report) = spans.span("probe.fabric.monte_carlo_fabric", None, |_, _| {
            secs(|| fabric.run(FABRIC_SESSIONS))
        });
        let mut sampling = 0.0;
        let mut reference = 0.0;
        let mut sessions = Vec::with_capacity(FABRIC_SESSIONS as usize);
        let mut writes = 0usize;
        let mut bad = 0u64;
        spans.span("probe.fabric.replay", None, |_, _| {
            for (id, record) in report.records.iter().enumerate() {
                let mut rng = ChaCha8Rng::seed_from_u64(derive_trial_seed(seed, id as u64));
                let (s, inputs) = secs(|| Fabric::sample(&mut rng));
                sampling += s;
                let (s, _) = secs(|| disj_function(&inputs));
                reference += s;
                let ctx = SessionContext {
                    session_id: id as u64,
                    deadline: None,
                    faults: &[],
                    recorder: &DISABLED_RECORDER,
                };
                let (s, result) =
                    secs(|| InProcessTransport.run_session(fabric.protocol(), &inputs, rng, &ctx));
                sessions.push(s);
                writes += result.board.messages().len();
                bad += u64::from(
                    result.output != record.output || result.bits_written != record.bits_written,
                );
            }
        });
        checks.record(FABRIC_SESSIONS, bad, || {
            format!("fabric: {bad} replayed sessions differ from monte_carlo_fabric's records")
        });
        let busy: f64 = sessions.iter().sum();
        let us: Vec<f64> = sessions.iter().map(|s| s * 1e6).collect();
        p50.push(stats::percentile(&us, 50.0));
        p99.push(stats::percentile(&us, 99.0));
        inputs_us.push(sampling * 1e6 / FABRIC_SESSIONS as f64);
        // What the job does besides sampling, the reference answer and the
        // session: dispatch, fault lookup, records, the ordered replay.
        overhead.push(1.0 - (busy + sampling + reference) / wall);
        ns_per_turn.push(busy * 1e9 / writes as f64);
    }
    vec![
        Metric::median("blackboard.engine_ns_per_turn", "ns", &ns_per_turn),
        Metric::median("fabric.session_p50_us", "us", &p50),
        Metric::median("fabric.session_p99_us", "us", &p99),
        Metric::median("fabric.inputs_us", "us", &inputs_us),
        Metric::median("fabric.overhead_frac", "fraction", &overhead),
    ]
}

/// net: the v2 frame codec over Broadcast frames carrying a 1-bit message
/// and a 41-byte RNG state.
fn net(spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    const FRAMES: usize = 100_000;
    let frames: Vec<Frame> = (0..FRAMES)
        .map(|i| {
            Frame::Broadcast(BroadcastFrame {
                turn: i as u32,
                speaker: (i % 2) as u32,
                bits: BitVec::from_bools(&[i % 3 == 0]),
                next: ((i + 1) % 2) as u32,
                rng: (0..41).map(|b| (b * 7 + i) as u8).collect(),
            })
        })
        .collect();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..PROBE_REPS {
        let (s, bytes) = spans.span("probe.net.encode", None, |_, _| {
            secs(|| {
                let mut buf = Vec::new();
                for (i, f) in frames.iter().enumerate() {
                    buf.extend_from_slice(&f.to_bytes_mux(i as u64));
                }
                buf
            })
        });
        encode.push(s * 1e9 / FRAMES as f64);
        let (s, decoded) = spans.span("probe.net.decode", None, |_, _| {
            secs(|| {
                let mut reader = FrameReader::new_mux();
                let mut stream = Cursor::new(&bytes);
                let mut out = Vec::with_capacity(FRAMES);
                while let Ok(Some(hit)) = reader.poll_mux(&mut stream) {
                    out.push(hit);
                }
                out
            })
        });
        decode.push(s * 1e9 / FRAMES as f64);
        let bad = (0..FRAMES)
            .filter(|&i| decoded.get(i) != Some(&(i as u64, frames[i].clone())))
            .count() as u64;
        checks.record(FRAMES as u64, bad, || {
            format!("net: {bad} frames did not decode to what was encoded")
        });
    }
    vec![
        Metric::median("net.encode_ns_per_frame", "ns", &encode),
        Metric::median("net.decode_ns_per_frame", "ns", &decode),
    ]
}

/// telemetry: one histogram sample on the turn-latency ladder.
fn telemetry(spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    const SAMPLES: u64 = 1_000_000;
    let ns: Vec<f64> = reps(spans, "probe.telemetry.hist_record", || {
        let recorder = Recorder::metrics_only();
        let (s, ()) = secs(|| {
            for i in 0..SAMPLES {
                recorder.hist_record(
                    "bench.turn_latency_us",
                    i * 7919 % 100_000,
                    TURN_LATENCY_US_BOUNDS,
                );
            }
        });
        let count = recorder
            .snapshot()
            .hist("bench.turn_latency_us")
            .map_or(0, |h| h.count());
        checks.record(SAMPLES, SAMPLES - count.min(SAMPLES), || {
            format!("telemetry: {count} of {SAMPLES} samples recorded")
        });
        s * 1e9 / SAMPLES as f64
    });
    vec![Metric::median("telemetry.hist_record_ns", "ns", &ns)]
}

/// mux: `LoadReport` fields and the last admin snapshot of scraped runs
/// shaped like `mux_serial` (turn latency) and `mux_window` (the rest),
/// with fewer sessions than those workloads.
fn mux(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let runs = |spec, spans: &mut Spans, checks: &mut Checks| -> Vec<LoadReport> {
        let mux = Mux::new(spec);
        (0..PROBE_REPS)
            .filter_map(|_| mux.checked_run(true, spans, checks).map(|(_, r)| r))
            .collect()
    };
    let serial = runs(
        workloads::mux_spec(MUX_SERIAL_SESSIONS, 1, seed),
        spans,
        checks,
    );
    let window = runs(
        workloads::mux_spec(MUX_WINDOW_SESSIONS, 1024, seed),
        spans,
        checks,
    );
    let per = |reports: &[LoadReport], f: &dyn Fn(&LoadReport) -> f64| -> Vec<f64> {
        reports.iter().map(f).collect()
    };
    let queue_p99 = |r: &LoadReport| {
        r.scrape_snapshot
            .as_ref()
            .and_then(|s| s.hist("mux.outbound_queue_bytes"))
            .filter(|h| !h.is_empty())
            .map_or(0.0, |h| stats::hist_percentile(h, 99.0))
    };
    let scraped = window
        .iter()
        .filter(|r| r.scrape_snapshot.is_some())
        .count() as u64;
    checks.record(window.len() as u64, window.len() as u64 - scraped, || {
        "mux: a scraped run landed no admin snapshot".to_owned()
    });
    vec![
        Metric::median(
            "mux.turn_p99_us",
            "us",
            &per(&serial, &|r| stats::hist_percentile(&r.turn_latency, 99.0)),
        ),
        Metric::median(
            "mux.frames_per_session",
            "frames/session",
            &per(&window, &|r| {
                (r.wire.frames_tx + r.wire.frames_rx) as f64 / r.sessions as f64
            }),
        ),
        Metric::median(
            "mux.wire_bytes_per_session",
            "bytes/session",
            &per(&window, &|r| {
                r.wire.bytes_total() as f64 / r.sessions as f64
            }),
        ),
        Metric::median(
            "mux.wire_bits_per_bit",
            "bits/bit",
            &per(&window, &|r| r.wire_bits_per_transcript_bit()),
        ),
        Metric::median(
            "mux.outbound_queue_bytes_p99",
            "bytes",
            &per(&window, &queue_p99),
        ),
    ]
}
