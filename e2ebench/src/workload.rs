//! The two workloads and the rounds they run.
//!
//! A run is five rounds. Each round repeats every phase of a deployed
//! detector's life once, so every metric's samples are spread over the
//! whole run rather than taken in one burst (the speed of a shared host
//! drifts over tens of seconds, and a burst lands in one drift):
//!
//! 1. set-up: generate the SMAP-like corpus, fit the ensemble, save and
//!    load its checkpoint, open a journal, create the streams and warm
//!    their rings up. The first round's fleet serves the run; later
//!    set-ups are measured and discarded;
//! 2. an open-loop segment: all streams sample every 40 ms; at each due
//!    time the loop journals and pushes every stream's observation, syncs
//!    the journal once, ticks, and emits the scores (in `fleet_drift` a
//!    level shift starts the segment's drift episode and a canary feeds an
//!    adaptation controller);
//! 3. a closed-loop segment: the same body back to back, to measure
//!    capacity, with a fleet snapshot taken a fixed number of ticks before
//!    its end, followed by three restarts that each load the checkpoint,
//!    restore the snapshot, read the journal and replay the tail;
//! 4. batch scoring of the test split (`Detector::score`), once before
//!    each of the two segments and once after them;
//! 5. outside `fleet_drift`, two drift episodes on an idle one-stream
//!    fleet.
//!
//! End-to-end timings sampled in every round are reported as the fastest
//! decile of their samples (see [`stats::fastest_decile`]); set-up time as
//! the median of the set-ups.

use crate::stats::{self, fastest_decile, median, ms, percentile, Ledger};
use crate::trace::Tracer;
use cae_adapt::{AdaptationConfig, AdaptationController};
use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig, RefitOptions};
use cae_data::{
    Dataset, DatasetKind, Detector, JournalConfig, JournalRecord, ObservationJournal, Scale,
    TimeSeries,
};
use cae_obs::MetricsRegistry;
use cae_serve::{FleetDetector, FleetSnapshot, HealthConfig, StreamId, FLEET_BATCH};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sampling period of the open loop (25 Hz).
pub const PERIOD: Duration = Duration::from_millis(40);
/// An observation scored later than this after its due time fails. A
/// tick takes about 20 ms; the limit leaves room for the journal's fsync
/// stalling on a shared disk, which delays the ticks queued behind it.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Rounds per run; `--seconds` of open loop are split evenly among them.
pub const ROUNDS: usize = 5;
/// Ticks of each closed-loop segment, timed in blocks of `BLOCK_TICKS`.
pub const CLOSED_TICKS: usize = 60;
pub const BLOCK_TICKS: usize = 10;
/// The snapshot is taken this many ticks before a closed-loop segment
/// ends; the restart replays them.
pub const REPLAY_TICKS: usize = 10;
/// Restarts from each closed-loop segment's snapshot.
pub const RESTARTS: usize = 3;
/// Streams whose fleet scores are checked against `CaeEnsemble::score`:
/// the first, the last, and the last of the first half.
pub fn check_streams(streams: usize) -> [usize; 3] {
    [0, streams / 2 - 1, streams - 1]
}
/// Largest relative difference allowed between a fleet score and the
/// batch scorer's score of the same window. The two paths batch windows
/// differently, which may change the GEMM accumulation order.
pub const SCORE_REL_TOL: f32 = 1e-4;
/// The SMAP-like corpus and the ensemble's training are seeded with the
/// reproduction harness's fixed seed (`RunProfile`'s `HARNESS_SEED`), the
/// stand-in for the paper's fixed SMAP dataset: detection quality is then
/// a deterministic function of the code. The workload seed varies what the
/// serving system sees on top of it: stream offsets, the drift shifts,
/// re-fit seeds and the probes' inputs.
pub const HARNESS_SEED: u64 = 2022;
/// Floors of the detection quality (ROC and PR AUC of the batch scores).
/// The code this benchmark was written against measures 0.8562 / 0.6709.
pub const ROC_AUC_FLOOR: f64 = 0.84;
pub const PR_AUC_FLOOR: f64 = 0.65;
/// Due time, within each `fleet_drift` segment, of the segment's level
/// shift: half a second of unshifted traffic first.
pub const SHIFT_AT: usize = 12;
/// A `fleet_drift` segment keeps serving at most this many due times
/// (6 s) after its last one, so that a re-fit still in flight completes
/// and is swapped in before the segment ends.
pub const DRAIN_TICKS: usize = 150;
/// In-distribution observations an idle-fleet drift episode feeds before
/// its level shift: enough to fill the re-fit reservoir.
pub const PROBE_WARM: usize = RESERVOIR + 16;
/// Idle-fleet drift episodes per `fleet_steady` round.
pub const IDLE_EPISODES: usize = 2;

/// One workload's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Level shifts and a canary feeding an adaptation controller during
    /// the serving loop. The streams then replay the training split
    /// (in-distribution, so every drift trip comes from an injected
    /// shift) instead of the test split.
    pub drift: bool,
    /// Streams in the fleet.
    pub streams: usize,
}

pub const SPECS: [Spec; 2] = [
    Spec {
        name: "fleet_steady",
        drift: false,
        // One full `FLEET_BATCH` chunk plus a half one.
        streams: 96,
    },
    Spec {
        name: "fleet_drift",
        drift: true,
        // One full chunk: a tick costs about half of `fleet_steady`'s, so
        // the loop keeps up while a re-fit shares both cores and the pool.
        streams: 64,
    },
];

/// The `RunProfile` quick CAE architecture (M=5, D′=24, w=16, L=2).
pub fn model_config(dim: usize) -> CaeConfig {
    CaeConfig::new(dim).embed_dim(24).window(16).layers(2)
}

/// The `RunProfile` quick training configuration.
pub fn ensemble_config() -> EnsembleConfig {
    EnsembleConfig::new()
        .num_models(5)
        .epochs_per_model(5)
        .train_stride(6)
        .seed(HARNESS_SEED)
}

/// Observations a re-fit trains on.
pub const RESERVOIR: usize = 256;

/// Adaptation sized for short segments: a cooldown short enough for an
/// episode per segment, and re-fits long enough (8 warm epochs) that the
/// ticks they overlap are a steady share of the loop rather than a
/// handful.
pub fn adaptation_config(seed: u64) -> AdaptationConfig {
    AdaptationConfig::new()
        .reservoir_capacity(RESERVOIR)
        .min_observations(48)
        .cooldown(50)
        .refit(RefitOptions::warm(8, seed))
}

/// SplitMix64: the benchmark's source of seeded choices.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
fn unit(seed: u64, salt: u64) -> f32 {
    (mix(seed, salt) >> 40) as f32 / (1u64 << 24) as f32
}

/// What each stream observes at each step: a row of the replayed split
/// at a stream-specific offset, plus the level shifts in force.
struct Feed {
    split: TimeSeries,
    offsets: Vec<usize>,
    /// `(first step, shift in per-channel standard deviations)`.
    shifts: Vec<(usize, f32)>,
    channel_std: Vec<f32>,
    /// Warm-up steps before the first due time (`w − 1`).
    warm: usize,
}

impl Feed {
    fn fill(&self, stream: usize, step: usize, out: &mut [f32]) {
        let row = (self.offsets[stream] + step) % self.split.len();
        out.copy_from_slice(self.split.observation(row));
        let level: f32 = self
            .shifts
            .iter()
            .filter(|&&(at, _)| step >= at)
            .map(|&(_, delta)| delta)
            .sum();
        if level != 0.0 {
            for (v, std) in out.iter_mut().zip(&self.channel_std) {
                *v += level * std;
            }
        }
    }
}

fn channel_std(series: &TimeSeries) -> Vec<f32> {
    let (n, d) = (series.len() as f64, series.dim());
    (0..d)
        .map(|c| {
            let values = series
                .data()
                .iter()
                .skip(c)
                .step_by(d)
                .map(|&v| f64::from(v));
            let mean = values.clone().sum::<f64>() / n;
            let var = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            var.sqrt() as f32
        })
        .collect()
}

/// The kernel tier's GEMM dispatch counters, linked into the registry by
/// `cae_tensor::obs::install`.
const PACKED: &str = "tensor_gemm_packed_dispatches_total";
const SCALAR: &str = "tensor_gemm_scalar_dispatches_total";

/// A named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-tick record of the open loop.
#[derive(Clone, Copy, Debug)]
struct TickLog {
    tick_ms: f64,
    windows: usize,
    refit_running: bool,
}

/// The serving side: fleet, streams and journal.
struct Live {
    fleet: FleetDetector,
    ids: Vec<StreamId>,
    journal: ObservationJournal,
    journal_dir: PathBuf,
    out: Vec<(StreamId, f32)>,
    obs: Vec<f32>,
    /// Steps pushed so far (warm-up included).
    step: usize,
    observations_journaled: u64,
}

/// Drift episodes: trip (a re-fit launched) to installed swap.
#[derive(Debug, Default)]
struct Adaptation {
    episodes_s: Vec<f64>,
    started: u64,
    completed: u64,
    swaps: u64,
}

/// The adaptation side of `fleet_drift`, kept across segments.
struct Drift {
    controller: AdaptationController,
    trip_at: Option<Instant>,
    /// Drift trips counted before the first level shift took effect.
    trips_before_shift: Option<u64>,
}

/// What every idle drift episode shares.
struct IdleEpisodes {
    model: Arc<CaeEnsemble>,
    train: TimeSeries,
    /// The model's scores on the tail of its training split: the drift
    /// monitor's in-distribution baseline.
    baseline: Vec<f32>,
    channel_std: Vec<f32>,
}

/// Every sample of a run, pooled over its rounds.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    fit_s: Vec<f64>,
    gen_s: Vec<f64>,
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    ticks: Vec<TickLog>,
    due_obs: u64,
    in_time: u64,
    emitted: u64,
    finite: u64,
    open_wall_s: f64,
    pool_s: f64,
    /// Closed-loop block times with spans off and on (traced runs).
    block_s: [Vec<f64>; 2],
    closed_pushed: u64,
    closed_scored: u64,
    gemm_packed: u64,
    gemm_scalar: u64,
    snapshot_ms: Vec<f64>,
    recover_s: Vec<f64>,
    restore_ms: Vec<f64>,
    read_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    score_s: Vec<f64>,
    scores: Vec<f32>,
    adaptation: Adaptation,
    /// Traced runs re-score each closed segment's tail right after each
    /// tick: per-chunk scoring times, the tick minus them, mismatches.
    rescore_tape: cae_autograd::Tape,
    full_ms: Vec<f64>,
    partial_ms: Vec<f64>,
    tick_self_ms: Vec<f64>,
    rescored: usize,
    mismatched: usize,
}

pub struct Bench {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub tracer: Tracer,
    pub registry: MetricsRegistry,
    pub ledger: Ledger,
    pub work: PathBuf,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Sample counts and raw figures for the error stream.
    pub notes: Vec<String>,
    dataset: Option<Dataset>,
    live_model: Option<Arc<CaeEnsemble>>,
    feed: Option<Feed>,
    live: Option<Live>,
    drift: Option<Drift>,
    idle: Option<IdleEpisodes>,
    /// Scores of the checked streams per step after warm-up, with the
    /// model generation that produced them.
    checked: Vec<Vec<Option<(f32, u64)>>>,
    s: Samples,
}

impl Bench {
    pub fn new(spec: Spec, seed: u64, seconds: u64, traced: bool, work: PathBuf) -> Bench {
        let registry = if traced {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        };
        if traced {
            cae_tensor::obs::install(&registry);
        }
        Bench {
            spec,
            seed,
            seconds,
            traced,
            tracer: Tracer::new(traced),
            registry,
            ledger: Ledger::default(),
            work,
            e2e: Vec::new(),
            layer: Vec::new(),
            notes: Vec::new(),
            dataset: None,
            live_model: None,
            feed: None,
            live: None,
            drift: None,
            idle: None,
            checked: vec![Vec::new(); 3],
            s: Samples::default(),
        }
    }

    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name, value, unit });
    }

    /// A counter of the telemetry registry; 0 while the registry is off.
    fn counter(&self, name: &str) -> u64 {
        self.registry
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    pub fn dataset(&self) -> &Dataset {
        self.dataset.as_ref().expect("set-up generated the corpus")
    }

    pub fn live_model(&self) -> &Arc<CaeEnsemble> {
        self.live_model.as_ref().expect("set-up loaded the model")
    }

    /// Due times of one open-loop segment.
    fn segment_due(&self) -> usize {
        let total = (self.seconds as f64 / PERIOD.as_secs_f64()).round() as usize;
        (total / ROUNDS).max(SHIFT_AT + 1)
    }

    /// Runs every round and fills `e2e` and `layer`.
    pub fn run(&mut self) {
        let wall = Instant::now();
        let cpu0 = stats::process_cpu_s();
        for round in 0..ROUNDS {
            self.setup(round);
            self.batch_score();
            self.open_segment(round);
            self.batch_score();
            self.closed_segment(round);
            self.batch_score();
            if !self.spec.drift {
                for k in 0..IDLE_EPISODES {
                    self.idle_episode((round * IDLE_EPISODES + k) as u64);
                }
            }
        }
        self.report();
        self.check_stream_scores();
        if self.traced {
            crate::probes::run(self);
        }
        let wall_s = wall.elapsed().as_secs_f64();
        self.e2e("peak_rss_mb", stats::peak_rss_mb(), "MB");
        let cpu = (stats::process_cpu_s() - cpu0) / wall_s;
        self.layer("proc.cpu_util", cpu, "ratio");
        for (layer, self_ns) in crate::trace::layer_self_ns(self.tracer.spans()) {
            let name = match layer {
                "serve" => "serve.self_pct",
                "core" => "core.self_pct",
                "data" => "data.self_pct",
                "adapt" => "adapt.self_pct",
                "bench" => "bench.self_pct",
                _ => continue,
            };
            self.layer(name, self_ns as f64 / 1e9 / wall_s * 100.0, "%");
        }
    }

    // ------------------------------------------------------------------
    // 1. Set-up
    // ------------------------------------------------------------------

    /// One set-up. The first round's result serves the run; later rounds
    /// only measure it.
    fn setup(&mut self, round: usize) {
        let t0 = Instant::now();
        let t = Instant::now();
        let ds = self.tracer.span("data.gen", 0, || {
            DatasetKind::Smap.generate(Scale::Quick, HARNESS_SEED)
        });
        self.s.gen_s.push(t.elapsed().as_secs_f64());

        let mut ens = CaeEnsemble::new(model_config(ds.train.dim()), ensemble_config());
        let packed0 = self.counter(PACKED);
        let t = Instant::now();
        self.tracer.span("core.fit", 0, || ens.fit(&ds.train));
        self.s.fit_s.push(t.elapsed().as_secs_f64());
        if round == 0 && self.traced {
            let packed = self.counter(PACKED) - packed0;
            self.layer("tensor.gemm_packed_per_fit", packed as f64, "count");
        }

        let ckpt = self.work.join("model.caee");
        let t = Instant::now();
        self.tracer
            .span("core.ckpt_save", 0, || ens.save(&ckpt))
            .expect("checkpoint save");
        self.s.save_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let loaded = self
            .tracer
            .span("core.ckpt_load", 0, || CaeEnsemble::load(&ckpt))
            .expect("checkpoint load");
        self.s.load_ms.push(ms(t.elapsed()));
        let model = Arc::new(loaded);
        let feed = self.make_feed(&ds, &model);
        let live = self.open_fleet(&model, &feed, round);
        self.s.setup_s.push(t0.elapsed().as_secs_f64());

        if round > 0 {
            return;
        }
        if self.spec.drift {
            let train = &ds.train;
            let tail = train.slice(train.len() - 512, train.len());
            let baseline = model.score(&tail);
            let mut controller = AdaptationController::with_observability(
                &model,
                &baseline,
                adaptation_config(mix(self.seed, 3000)),
                &self.registry,
            );
            // Fill the re-fit reservoir with in-distribution traffic first,
            // so every episode re-fits on a full reservoir.
            for (t, &score) in baseline.iter().enumerate().skip(tail.len() - RESERVOIR) {
                controller.observe(&model, tail.observation(t), score);
            }
            self.drift = Some(Drift {
                controller,
                trip_at: None,
                trips_before_shift: None,
            });
        } else {
            self.idle = Some(IdleEpisodes {
                model: Arc::clone(&model),
                baseline: model.score(&ds.train.slice(ds.train.len() - 512, ds.train.len())),
                channel_std: channel_std(&ds.train),
                train: ds.train.clone(),
            });
        }
        self.feed = Some(feed);
        self.live = Some(live);
        self.live_model = Some(model);
        self.dataset = Some(ds);
    }

    fn make_feed(&self, ds: &Dataset, model: &CaeEnsemble) -> Feed {
        let split = if self.spec.drift {
            ds.train.clone()
        } else {
            ds.test.clone()
        };
        let warm = model.model_config().window - 1;
        // Offsets leave room for the whole run, so no stream wraps around
        // the end of the split (a wrap would be a level jump of its own).
        let drain = if self.spec.drift { DRAIN_TICKS } else { 0 };
        let steps = warm + ROUNDS * (self.segment_due() + drain + CLOSED_TICKS);
        let room = split.len().saturating_sub(steps).max(1);
        let offsets = (0..self.spec.streams)
            .map(|s| (mix(self.seed, 1000 + s as u64) % room as u64) as usize)
            .collect();
        Feed {
            channel_std: channel_std(&ds.train),
            split,
            offsets,
            shifts: Vec::new(),
            warm,
        }
    }

    /// Creates a fleet and its journal, opens the streams and warms their
    /// rings up to one observation short of a full window.
    fn open_fleet(&mut self, model: &Arc<CaeEnsemble>, feed: &Feed, round: usize) -> Live {
        let fleet = FleetDetector::with_observability(
            Arc::clone(model),
            HealthConfig::default(),
            &self.registry,
        );
        let journal_dir = self.work.join(format!("journal-{round}"));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let mut journal =
            ObservationJournal::open(&journal_dir, JournalConfig::new()).expect("journal open");
        journal.attach_observability(&self.registry);
        let mut live = Live {
            fleet,
            ids: Vec::with_capacity(self.spec.streams),
            journal,
            journal_dir,
            out: Vec::with_capacity(self.spec.streams),
            obs: vec![0.0; model.model_config().dim],
            step: 0,
            observations_journaled: 0,
        };
        for _ in 0..self.spec.streams {
            let id = live.fleet.add_stream();
            let (slot, generation) = id.raw_parts();
            live.journal
                .append(&JournalRecord::StreamOpened { slot, generation })
                .expect("journal append");
            live.ids.push(id);
        }
        for _ in 0..feed.warm {
            self.serve_step(&mut live, feed, 0);
            assert!(live.out.is_empty(), "a ring scored before it was full");
        }
        live
    }

    /// Journals and pushes one observation per stream, syncs the journal
    /// once and ticks. Returns the tick's duration in milliseconds.
    fn serve_step(&mut self, live: &mut Live, feed: &Feed, group: u64) -> f64 {
        let step = live.step;
        live.step += 1;
        for (s, &id) in live.ids.iter().enumerate() {
            feed.fill(s, step, &mut live.obs);
            let (slot, generation) = id.raw_parts();
            let record = JournalRecord::Observation {
                slot,
                generation,
                values: live.obs.clone(),
            };
            let open = self.tracer.enter("data.journal_append", group);
            live.journal.append(&record).expect("journal append");
            self.tracer.exit(open);
            let open = self.tracer.enter("serve.push", group);
            let pushed = live.fleet.push(id, &live.obs);
            self.tracer.exit(open);
            pushed.expect("live stream accepts its observation");
        }
        live.observations_journaled += live.ids.len() as u64;
        live.journal
            .append(&JournalRecord::Tick)
            .expect("journal append");
        let open = self.tracer.enter("data.journal_sync", group);
        live.journal.sync().expect("journal sync");
        self.tracer.exit(open);
        let open = self.tracer.enter("serve.tick", group);
        let t = Instant::now();
        live.fleet.tick(&mut live.out);
        let tick_ms = ms(t.elapsed());
        self.tracer.exit(open);
        tick_ms
    }

    // ------------------------------------------------------------------
    // 2. Open-loop segment
    // ------------------------------------------------------------------

    fn open_segment(&mut self, round: usize) {
        let mut live = self.live.take().expect("set-up opened the fleet");
        let mut feed = self.feed.take().expect("set-up built the feed");
        let mut drift = self.drift.take();
        let n_due = self.segment_due();
        let check = check_streams(self.spec.streams);
        let pool0 = stats::threads_cpu_s("cae-par-");
        let start = Instant::now() + Duration::from_millis(20);
        let mut i = 0usize;
        loop {
            let refit_running = drift
                .as_ref()
                .is_some_and(|d| d.controller.refit_in_progress());
            let draining = i >= n_due;
            if draining && (!refit_running || i >= n_due + DRAIN_TICKS) {
                break;
            }
            let due = start + PERIOD * i as u32;
            wait_until(due);
            let late = Instant::now().saturating_duration_since(due);
            self.s.lateness.push(ms(late));
            if let (Some(d), true) = (drift.as_mut(), i == SHIFT_AT) {
                // The segment's level shift takes effect at this step.
                d.trips_before_shift
                    .get_or_insert(d.controller.stats().drift_trips);
                let delta = 1.5 + unit(self.seed, 2000 + round as u64);
                feed.shifts.push((live.step, delta));
            }

            let group = ((round as u64) << 24) + i as u64 + 1;
            let root = self.tracer.enter("bench.due", group);
            let step = live.step;
            let tick_ms = self.serve_step(&mut live, &feed, group);
            let latency = ms(Instant::now().saturating_duration_since(due));
            let generation = live.fleet.model_generation();
            let mut canary = None;
            let mut finite = 0u64;
            for &(id, score) in &live.out {
                self.s.latencies.push(latency);
                if !score.is_finite() {
                    continue;
                }
                finite += 1;
                let stream = live.ids.iter().position(|&x| x == id);
                if let Some(k) = stream.and_then(|s| check.iter().position(|&c| c == s)) {
                    record(&mut self.checked[k], step - feed.warm, (score, generation));
                }
                if stream == Some(0) {
                    canary = Some(score);
                }
            }
            self.s.due_obs += live.ids.len() as u64;
            self.s.emitted += live.out.len() as u64;
            self.s.finite += finite;
            if latency <= LATENCY_LIMIT_MS {
                self.s.in_time += finite;
            }
            self.s.ticks.push(TickLog {
                tick_ms,
                windows: live.out.len(),
                refit_running,
            });
            if let Some(d) = drift.as_mut() {
                self.adapt_step(d, &mut live, &feed, step, canary, draining, group);
            }
            self.tracer.exit(root);
            i += 1;
        }
        self.s.open_wall_s += start.elapsed().as_secs_f64();
        self.s.pool_s += stats::threads_cpu_s("cae-par-") - pool0;
        self.live = Some(live);
        self.feed = Some(feed);
        self.drift = drift;
    }

    /// The canary's score feeds the adaptation controller (not while
    /// draining); a finished re-fit is swapped into the fleet.
    #[allow(clippy::too_many_arguments)]
    fn adapt_step(
        &mut self,
        d: &mut Drift,
        live: &mut Live,
        feed: &Feed,
        step: usize,
        canary: Option<f32>,
        draining: bool,
        group: u64,
    ) {
        if let (Some(score), false) = (canary, draining) {
            feed.fill(0, step, &mut live.obs);
            let open = self.tracer.enter("adapt.observe", group);
            let started = d
                .controller
                .observe(live.fleet.ensemble(), &live.obs, score);
            self.tracer.exit(open);
            if started {
                d.trip_at = Some(Instant::now());
                self.s.adaptation.started += 1;
            }
        }
        let open = self.tracer.enter("adapt.poll", group);
        let adapted = d.controller.poll();
        self.tracer.exit(open);
        if let Some(next) = adapted {
            self.s.adaptation.completed += 1;
            let open = self.tracer.enter("serve.swap", group);
            live.fleet.swap_ensemble(next);
            self.tracer.exit(open);
            self.s.adaptation.swaps += 1;
            if let Some(at) = d.trip_at.take() {
                self.s
                    .adaptation
                    .episodes_s
                    .push(at.elapsed().as_secs_f64());
            }
        }
    }

    // ------------------------------------------------------------------
    // 3. Closed-loop segment and restart
    // ------------------------------------------------------------------

    fn closed_segment(&mut self, round: usize) {
        let mut live = self.live.take().expect("the open loop returned the fleet");
        let feed = self.feed.take().expect("the open loop returned the feed");
        // The restart loads the model serving now (a re-fit may have
        // replaced the set-up model).
        live.fleet
            .ensemble()
            .save(self.work.join("live.caee"))
            .expect("checkpoint save");
        let snapshot_at = CLOSED_TICKS - REPLAY_TICKS;
        let mut tail: Vec<((u64, u64), u32)> = Vec::new();
        let mut snapshot = None;
        let mut elapsed = Duration::ZERO;
        let (packed0, scalar0) = (self.counter(PACKED), self.counter(SCALAR));
        for k in 0..CLOSED_TICKS {
            // Traced runs alternate blocks of ticks with spans off and on;
            // the difference is the tracing overhead.
            let spans_on = (k / BLOCK_TICKS) % 2 == 1;
            if self.traced && k % BLOCK_TICKS == 0 {
                self.tracer.set_enabled(spans_on);
            }
            if k == snapshot_at {
                let open = self.tracer.enter("serve.snapshot", 0);
                let t = Instant::now();
                snapshot = Some(
                    live.fleet
                        .snapshot()
                        .with_journal_position(live.journal.position()),
                );
                self.s.snapshot_ms.push(ms(t.elapsed()));
                self.tracer.exit(open);
            }
            let t = Instant::now();
            let group = (1 << 40) + ((round as u64) << 24) + k as u64;
            let step = live.step;
            let tick_ms = self.serve_step(&mut live, &feed, group);
            elapsed += t.elapsed();
            if self.traced && k >= snapshot_at {
                let ensemble = Arc::clone(live.fleet.ensemble());
                self.rescore_tick(&feed, step, &ensemble, &live.out, tick_ms);
            }
            self.s.closed_pushed += live.ids.len() as u64;
            self.s.closed_scored += live.out.iter().filter(|(_, s)| s.is_finite()).count() as u64;
            if k >= snapshot_at {
                tail.extend(
                    live.out
                        .iter()
                        .map(|&(id, s)| (id.raw_parts(), s.to_bits())),
                );
            }
            if k % BLOCK_TICKS == BLOCK_TICKS - 1 {
                self.s.block_s[usize::from(spans_on)].push(elapsed.as_secs_f64());
                elapsed = Duration::ZERO;
            }
        }
        self.tracer.set_enabled(self.traced);
        self.s.gemm_packed += self.counter(PACKED) - packed0;
        self.s.gemm_scalar += self.counter(SCALAR) - scalar0;
        let snapshot = snapshot.expect("the closed loop took a snapshot");
        snapshot
            .save(self.work.join("fleet.caef"))
            .expect("snapshot save");
        let position = snapshot
            .journal_position()
            .expect("snapshot carries its journal position");
        for _ in 0..RESTARTS {
            self.restart(round, &live.journal_dir, position, &tail);
        }
        self.live = Some(live);
        self.feed = Some(feed);
    }

    /// Load the checkpoint, restore the snapshot, read the journal from
    /// the snapshot's position and replay it. Every append was synced, so
    /// a second handle reads the journal while the fleet's stays open.
    /// The replayed scores must equal the live ones bit for bit.
    fn restart(
        &mut self,
        round: usize,
        dir: &Path,
        position: cae_data::JournalPosition,
        tail: &[((u64, u64), u32)],
    ) {
        let t0 = Instant::now();
        let model = self
            .tracer
            .span("core.ckpt_load", 0, || {
                CaeEnsemble::load(self.work.join("live.caee"))
            })
            .expect("checkpoint load");
        let t = Instant::now();
        let open = self.tracer.enter("serve.restore", 0);
        let snapshot = FleetSnapshot::load(self.work.join("fleet.caef")).expect("snapshot load");
        let mut fleet = FleetDetector::restore(Arc::new(model), &snapshot).expect("restore");
        self.tracer.exit(open);
        self.s.restore_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let open = self.tracer.enter("data.journal_read", 0);
        let journal = ObservationJournal::open(dir, JournalConfig::new()).expect("journal open");
        let records = journal.replay_from(position).expect("journal read");
        self.tracer.exit(open);
        self.s.read_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let open = self.tracer.enter("serve.replay", 0);
        let mut replayed = Vec::with_capacity(tail.len());
        fleet
            .replay_journal_with(&records, |id, s| {
                replayed.push((id.raw_parts(), s.to_bits()));
            })
            .expect("replay");
        self.tracer.exit(open);
        self.s.replay_ms.push(ms(t.elapsed()));
        self.s.recover_s.push(t0.elapsed().as_secs_f64());
        self.ledger.check(
            replayed == tail,
            format!(
                "restart {round}: replay gave {} scores, live gave {} after the snapshot, not bit for bit equal",
                replayed.len(),
                tail.len()
            ),
        );
    }

    /// Traced runs only: re-scores one tick's windows through
    /// `score_scaled_windows_into` with the chunks the fleet used (ready
    /// streams in slot order, `FLEET_BATCH` at a time). The scores must
    /// match the tick's bit for bit; the timings give the scoring cost per
    /// chunk and, subtracted from the tick, the fleet's own share of it.
    fn rescore_tick(
        &mut self,
        feed: &Feed,
        step: usize,
        ensemble: &CaeEnsemble,
        scores: &[(StreamId, f32)],
        tick_ms: f64,
    ) {
        let (w, d) = (ensemble.model_config().window, ensemble.model_config().dim);
        let mut obs = vec![0.0; d];
        let streams = self.spec.streams;
        let mut produced = Vec::with_capacity(streams);
        let mut scoring_ms = 0.0;
        for first in (0..streams).step_by(FLEET_BATCH) {
            let n = FLEET_BATCH.min(streams - first);
            // Pooled buffers and a retained tape, as the fleet's tick uses.
            let mut data = cae_tensor::scratch::take(n * w * d);
            for stream in first..first + n {
                for s in step + 1 - w..=step {
                    feed.fill(stream, s, &mut obs);
                    data.extend_from_slice(&obs);
                }
            }
            if let Some(scaler) = ensemble.scaler() {
                scaler.apply_in_place(&mut data);
            }
            let batch = cae_tensor::Tensor::from_vec(data, &[n, w, d]);
            let open = self.tracer.enter("core.score_windows", step as u64);
            let t = Instant::now();
            ensemble.score_scaled_windows_into(&mut self.s.rescore_tape, &batch, &mut produced);
            let took = ms(t.elapsed());
            self.tracer.exit(open);
            batch.recycle();
            scoring_ms += took;
            if n == FLEET_BATCH {
                self.s.full_ms.push(took);
            } else {
                self.s.partial_ms.push(took);
            }
        }
        self.s.tick_self_ms.push(tick_ms - scoring_ms);
        self.s.rescored += 1;
        let exact = produced.len() == scores.len()
            && produced
                .iter()
                .zip(scores)
                .all(|(a, (_, b))| a.to_bits() == b.to_bits());
        if !exact {
            self.s.mismatched += 1;
        }
    }

    // ------------------------------------------------------------------
    // 4. Batch scoring and 5. idle adaptation
    // ------------------------------------------------------------------

    /// One batch scoring of the test split; three per round, spread over
    /// it, give the fastest decile fifteen samples.
    fn batch_score(&mut self) {
        let model = Arc::clone(self.live_model());
        let test = &self
            .dataset
            .as_ref()
            .expect("set-up generated the corpus")
            .test;
        let t = Instant::now();
        let scores = self
            .tracer
            .span("core.score_series", 0, || model.score(test));
        self.s.score_s.push(t.elapsed().as_secs_f64());
        self.s.scores = scores;
    }

    /// One drift episode with nothing else running: a one-stream fleet
    /// feeds in-distribution observations until the re-fit reservoir is
    /// full, then shifted ones; the time from the trip to the installed
    /// swap is the episode's adaptation time.
    fn idle_episode(&mut self, ep: u64) {
        let idle = self.idle.take().expect("set-up prepared the idle episodes");
        let mut fleet = FleetDetector::new(Arc::clone(&idle.model));
        let id = fleet.add_stream();
        let mut ctrl = AdaptationController::with_observability(
            &idle.model,
            &idle.baseline,
            adaptation_config(mix(self.seed, 4000 + ep)),
            &self.registry,
        );
        let train = &idle.train;
        let offset = (mix(self.seed, 5000 + ep) % (train.len() as u64 - 1000)) as usize;
        let shift = 1.5 + unit(self.seed, 6000 + ep);
        let mut obs = vec![0.0; train.dim()];
        let mut out = Vec::new();
        let mut trip_at = None;
        for t in 0..PROBE_WARM + 400 {
            obs.copy_from_slice(train.observation(offset + t));
            if t >= PROBE_WARM {
                for (v, s) in obs.iter_mut().zip(&idle.channel_std) {
                    *v += shift * s;
                }
            }
            fleet
                .push(id, &obs)
                .expect("live stream accepts its observation");
            fleet.tick(&mut out);
            let Some(&(_, score)) = out.first() else {
                continue;
            };
            let open = self.tracer.enter("adapt.observe", ep);
            let started = ctrl.observe(fleet.ensemble(), &obs, score);
            self.tracer.exit(open);
            if started {
                trip_at = Some(Instant::now());
                self.s.adaptation.started += 1;
                break;
            }
        }
        if let Some(at) = trip_at {
            let next = loop {
                let open = self.tracer.enter("adapt.poll", ep);
                let got = ctrl.poll();
                self.tracer.exit(open);
                if got.is_some()
                    || !ctrl.refit_in_progress()
                    || at.elapsed() > Duration::from_secs(60)
                {
                    break got;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            if let Some(next) = next {
                self.s.adaptation.completed += 1;
                let open = self.tracer.enter("serve.swap", ep);
                fleet.swap_ensemble(next);
                self.tracer.exit(open);
                self.s.adaptation.swaps += 1;
                self.s
                    .adaptation
                    .episodes_s
                    .push(at.elapsed().as_secs_f64());
            }
        }
        self.idle = Some(idle);
    }

    // ------------------------------------------------------------------
    // Metrics and output checks
    // ------------------------------------------------------------------

    fn report(&mut self) {
        let s = std::mem::take(&mut self.s);

        self.e2e("setup_s", median(&s.setup_s), "s");
        self.e2e("fit_s", fastest_decile(&s.fit_s), "s");
        self.layer("data.gen_s", median(&s.gen_s), "s");
        self.layer("core.ckpt_save_ms", median(&s.save_ms), "ms");
        self.layer("core.ckpt_load_ms", median(&s.load_ms), "ms");

        // Batch scoring.
        let (roc, pr, n_test) = {
            let ds = self.dataset();
            let roc = cae_metrics::roc_auc(&s.scores, &ds.test_labels);
            let pr = cae_metrics::pr_auc(&s.scores, &ds.test_labels);
            (roc, pr, ds.test.len())
        };
        self.ledger.check(
            s.scores.len() == n_test && s.scores.iter().all(|v| v.is_finite()),
            "batch scores: one finite score per test observation",
        );
        self.ledger.check(
            roc >= ROC_AUC_FLOOR,
            format!("ROC AUC {roc:.4} below the floor {ROC_AUC_FLOOR}"),
        );
        self.ledger.check(
            pr >= PR_AUC_FLOOR,
            format!("PR AUC {pr:.4} below the floor {PR_AUC_FLOOR}"),
        );
        let score_s = median(&s.score_s);
        self.e2e(
            "score_obs_per_s",
            n_test as f64 / fastest_decile(&s.score_s),
            "1/s",
        );
        self.e2e("roc_auc", roc, "ratio");
        self.e2e("pr_auc", pr, "ratio");
        self.layer("core.score_series_s", score_s, "s");

        // Open loop.
        self.ledger.observations(s.due_obs, s.in_time);
        let scored: u64 = s.ticks.iter().map(|t| t.windows as u64).sum();
        let health = self
            .live
            .as_ref()
            .expect("the run kept its fleet")
            .fleet
            .health_report();
        let (shed, suppressed) = (health.shed_windows, health.suppressed_scores);
        let skipped = s.due_obs.saturating_sub(scored + shed + suppressed);
        self.ledger.check(
            scored == s.due_obs && shed == 0 && suppressed == 0,
            format!(
                "{} due observations, {scored} scored, {shed} shed, {suppressed} suppressed",
                s.due_obs
            ),
        );
        self.ledger.check(
            s.finite == s.emitted,
            format!(
                "{} of {} emitted scores are not finite",
                s.emitted - s.finite,
                s.emitted
            ),
        );
        let due_times = s.lateness.len();
        let pct = |v: &[f64], q: f64| percentile(v, q).map_or(0.0, |p| p.value);
        self.notes.push(format!(
            "open loop: {due_times} due times in {ROUNDS} segments ({} beyond p95, {} beyond p99), {} latency samples, lateness p50 {:.3} ms p99 {:.3} ms max {:.3} ms",
            stats::samples_beyond(due_times, 0.95),
            stats::samples_beyond(due_times, 0.99),
            s.latencies.len(),
            pct(&s.lateness, 0.5),
            pct(&s.lateness, 0.99),
            s.lateness.iter().copied().fold(0.0, f64::max),
        ));
        // The observations of one due time share their latency, so the
        // independent samples are the due times: at 20 s, 500 of them put
        // 25 beyond p95 and 5 beyond p99. Between runs on a shared host
        // both tails spread by more than any usable bound, so they are
        // per-layer figures and only the median is end to end.
        self.e2e("obs_latency_p50_ms", pct(&s.latencies, 0.5), "ms");
        self.layer("loop.latency_ms_p95", pct(&s.latencies, 0.95), "ms");
        self.layer("loop.latency_ms_p99", pct(&s.latencies, 0.99), "ms");
        self.layer("loop.lateness_ms_p99", pct(&s.lateness, 0.99), "ms");
        let max_late = s.lateness.iter().copied().fold(0.0, f64::max);
        let backlog = 1 + (max_late / ms(PERIOD)) as usize;
        self.layer("loop.max_backlog", backlog as f64, "count");

        let tick_ms: Vec<f64> = s.ticks.iter().map(|t| t.tick_ms).collect();
        let refit_ms: Vec<f64> = s
            .ticks
            .iter()
            .filter(|t| t.refit_running)
            .map(|t| t.tick_ms)
            .collect();
        self.notes
            .push(format!("{} ticks overlapped a re-fit", refit_ms.len()));
        self.layer("serve.tick_ms_p50", pct(&tick_ms, 0.5), "ms");
        self.layer("serve.tick_ms_p99", pct(&tick_ms, 0.99), "ms");
        self.layer("serve.tick_ms_p99_refit", pct(&refit_ms, 0.99), "ms");
        let chunks: usize = s
            .ticks
            .iter()
            .map(|t| t.windows.div_ceil(FLEET_BATCH))
            .sum();
        self.layer(
            "serve.windows_per_tick",
            scored as f64 / s.ticks.len() as f64,
            "count",
        );
        self.layer(
            "serve.batch_fill",
            scored as f64 / (chunks.max(1) * FLEET_BATCH) as f64,
            "ratio",
        );
        self.layer("serve.skipped_windows", skipped as f64, "count");
        self.layer(
            "serve.shed_windows",
            self.counter("serve_shed_windows_total") as f64,
            "count",
        );
        self.layer(
            "serve.suppressed_scores",
            self.counter("serve_suppressed_scores_total") as f64,
            "count",
        );
        self.layer(
            "tensor.pool_busy_pct",
            s.pool_s / s.open_wall_s * 100.0,
            "%",
        );
        self.layer(
            "tensor.scratch_pooled_mb",
            cae_tensor::scratch::pooled_bytes() as f64 / (1 << 20) as f64,
            "MB",
        );
        for (name, span, q, scale) in [
            ("serve.push_ns_p50", "serve.push", 0.5, 1.0),
            (
                "data.journal_append_ns_p50",
                "data.journal_append",
                0.5,
                1.0,
            ),
            (
                "data.journal_append_ns_p99",
                "data.journal_append",
                0.99,
                1.0,
            ),
            ("data.journal_sync_ms_p50", "data.journal_sync", 0.5, 1e-6),
            ("data.journal_sync_ms_p99", "data.journal_sync", 0.99, 1e-6),
            ("adapt.observe_ns_p99", "adapt.observe", 0.99, 1.0),
            ("adapt.poll_ns_p99", "adapt.poll", 0.99, 1.0),
        ] {
            let unit = if scale == 1.0 { "ns" } else { "ms" };
            let value = pct(&self.tracer.durations_ns(span), q) * scale;
            self.layer(name, value, unit);
        }

        // Closed loop: the rate of the fastest decile of blocks.
        self.ledger.observations(s.closed_pushed, s.closed_scored);
        let blocks: Vec<f64> = s.block_s.concat();
        self.e2e(
            "obs_per_s",
            (BLOCK_TICKS * self.spec.streams) as f64 / fastest_decile(&blocks),
            "1/s",
        );
        let windows = s.closed_scored.max(1) as f64;
        self.layer(
            "tensor.gemm_packed_per_window",
            s.gemm_packed as f64 / windows,
            "count",
        );
        self.layer(
            "tensor.gemm_scalar_per_window",
            s.gemm_scalar as f64 / windows,
            "count",
        );
        let (off, on) = (median(&s.block_s[0]), median(&s.block_s[1]));
        self.layer("obs.trace_overhead_pct", (on - off) / off * 100.0, "%");
        if self.traced {
            self.ledger.check(
                s.rescored > 0 && s.mismatched == 0,
                format!(
                    "{} of {} re-scored ticks: score_scaled_windows_into does not reproduce the tick's scores exactly",
                    s.mismatched, s.rescored
                ),
            );
        }
        self.layer("core.score_windows_ms_p50_b64", median(&s.full_ms), "ms");
        self.layer("core.score_windows_ms_p50_b32", median(&s.partial_ms), "ms");
        self.layer("serve.tick_self_ms_p50", median(&s.tick_self_ms), "ms");
        let live = self.live.as_ref().expect("the run kept its fleet");
        let bytes_per_obs =
            dir_bytes(&live.journal_dir) as f64 / live.observations_journaled as f64;
        self.layer("data.journal_bytes_per_obs", bytes_per_obs, "count");

        // Restart.
        self.layer("serve.snapshot_ms", median(&s.snapshot_ms), "ms");
        self.e2e("recover_s", fastest_decile(&s.recover_s), "s");
        self.layer("serve.restore_ms", median(&s.restore_ms), "ms");
        self.layer("data.journal_read_ms", median(&s.read_ms), "ms");
        self.layer("serve.replay_ms", median(&s.replay_ms), "ms");

        // Adaptation.
        let a = &s.adaptation;
        if let Some(d) = &self.drift {
            let stats = *d.controller.stats();
            let before = d.trips_before_shift.unwrap_or(0);
            self.ledger.check(
                before == 0,
                format!("{before} drift trips before the first shift"),
            );
            self.ledger.check(
                a.started >= 1
                    && stats.refits_started == a.started
                    && stats.refits_completed == a.started
                    && a.swaps == a.started,
                format!(
                    "re-fits: {} started, {} completed, {} swapped in",
                    stats.refits_started, stats.refits_completed, a.swaps
                ),
            );
        } else {
            let n = (ROUNDS * IDLE_EPISODES) as u64;
            self.ledger.check(
                a.started == n && a.completed == n && a.swaps == n,
                format!(
                    "idle adaptation: {n} episodes, {} re-fits started, {} completed, {} swapped in",
                    a.started, a.completed, a.swaps
                ),
            );
        }
        self.notes.push(format!(
            "adaptation: {} episodes {:.3?} s; batch scoring {:.3?} s; restarts {:.3?} s; fits {:.3?} s",
            a.episodes_s.len(),
            a.episodes_s,
            s.score_s,
            s.recover_s,
            s.fit_s
        ));
        self.e2e("adapt_s", fastest_decile(&a.episodes_s), "s");
        self.layer("adapt.refits_started", a.started as f64, "count");
        self.layer("adapt.refits_completed", a.completed as f64, "count");
        let refit = self
            .registry
            .snapshot()
            .histograms
            .into_iter()
            .find(|(n, _)| *n == "adapt_refit_duration_ns")
            .map(|(_, h)| h);
        self.layer(
            "adapt.refit_s_p50",
            refit.as_ref().map_or(0.0, |h| h.p50 as f64 / 1e9),
            "s",
        );
        self.layer(
            "adapt.refit_s_mean",
            refit
                .as_ref()
                .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64 / 1e9),
            "s",
        );
        let swaps = self.tracer.durations_ns("serve.swap");
        self.layer("serve.swap_us", median(&swaps) / 1e3, "us");
    }

    /// The fleet's scores of a few streams, served under the set-up
    /// model, must match `CaeEnsemble::score` on each stream's own series.
    fn check_stream_scores(&mut self) {
        let feed = self.feed.as_ref().expect("set-up built the feed");
        let model = Arc::clone(self.live_model());
        let mut obs = vec![0.0; model.model_config().dim];
        let mut results = Vec::new();
        for (k, &stream) in check_streams(self.spec.streams).iter().enumerate() {
            let scores = &self.checked[k];
            let mut series = TimeSeries::empty(obs.len());
            for step in 0..feed.warm + scores.len() {
                feed.fill(stream, step, &mut obs);
                series.push(&obs);
            }
            let reference = model.score(&series);
            let (mut compared, mut worst) = (0usize, 0.0f32);
            for (i, slot) in scores.iter().enumerate() {
                let Some((score, 0)) = *slot else { continue };
                let r = reference[feed.warm + i];
                worst = worst.max((score - r).abs() / r.abs().max(f32::MIN_POSITIVE));
                compared += 1;
            }
            results.push((stream, compared, worst));
        }
        for (stream, compared, worst) in results {
            self.notes.push(format!(
                "stream {stream}: {compared} fleet scores vs CaeEnsemble::score, worst relative difference {worst:.3e}"
            ));
            self.ledger.check(
                compared > 0 && worst <= SCORE_REL_TOL,
                format!(
                    "stream {stream}: {compared} fleet scores compared, worst relative difference {worst:.3e} > {SCORE_REL_TOL:e}"
                ),
            );
        }
    }
}

fn record(slots: &mut Vec<Option<(f32, u64)>>, at: usize, value: (f32, u64)) {
    if slots.len() <= at {
        slots.resize(at + 1, None);
    }
    slots[at] = Some(value);
}

/// Sleeps until `due`, spinning through the last stretch so the wake-up
/// is not late by the scheduler's timer slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
