//! The traced run: per-layer costs, measured from outside by timing calls
//! into each crate's public functions, and reconciled against the
//! untraced `ScenarioResult::execute_streaming_in` of the same scenarios.
//!
//! The streaming pipeline is recomposed here from public calls —
//! `Scenario::build_in`, `NetSim::run_until`/`finish`/`reset_into`, a
//! per-node log sink driving `StreamDigest`, `IntervalBuilder` with
//! `ObservationPool` and `SegmentBuilder`, then `regress` — with a clock
//! around each call, and a delegating `RadioMedium` installed with
//! `NetSim::set_medium` to time delivery and carrier sense.  Its digests
//! must equal the fleet's, which proves the recomposition ran the same
//! pipeline.

use crate::checks;
use crate::inputs::{self, Job, Scale, Workload};
use crate::stats::{median, Metric, Tally};
use analysis::{regress, IntervalBuilder, ObservationPool, RegressionOptions, SegmentBuilder};
use hw_model::{Energy, SimTime};
use net_sim::radio::{
    Ideal, Mobility, MobilityTrace, OnAir, PathLoss, PathLossParams, Position, PositionedMedium,
    Reception, UnitDisk,
};
use net_sim::{DeliveryCounters, NetScratch, NetSim, RadioMedium, Topology};
use os_sim::{Emission, NodeConfig};
use quanto_apps::{lpl_node_config, paper_interference, BlinkApp, LplListenerApp};
use quanto_core::{LogEntry, NodeId, StreamDigest};
use quanto_fleet::dist::GridOverrides;
use quanto_fleet::{
    AppSpec, FleetRunner, GeometrySpec, MediumSpec, ReportAccumulator, ResultCache, Retention,
    Scenario, ScenarioResult, SimWorkspace, TopologySpec,
};
use quanto_serve::{client, ServeConfig, Server};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The reconciliation bound: the timed layers must account for the
/// untraced execution time to within this share.
pub const UNATTRIBUTED_BOUND: f64 = 0.10;

/// Repetitions of each paired measurement outside the layer passes.
const PAIRS: usize = 5;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// `num / den`, or 0 when the denominator is empty (a layer the workload
/// never reaches, such as radio delivery on a single-node sweep).
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time and work per layer, summed over every traced scenario execution.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    /// `Scenario::build_in` plus attaching the sinks.
    build: Duration,
    /// `NetSim::run_until`, minus the sink and medium time inside it.
    run: Duration,
    /// `NetSim::finish`, minus the sink time inside it (the tail drain).
    finish: Duration,
    /// `NetSim::reset_into`.
    teardown: Duration,
    /// `RadioMedium::deliver` and `carrier_senses`.
    medium: Duration,
    /// `StreamDigest::fold_chunk`.
    digest: Duration,
    /// `IntervalBuilder::push_chunk`/`flush` plus `ObservationPool::add`.
    intervals: Duration,
    /// `SegmentBuilder::push_chunk`/`flush`.
    segments: Duration,
    /// `ObservationPool::observations` plus `regress`.
    wls: Duration,
    /// The whole traced execution, including the medium swap that only
    /// tracing needs.
    wall: Duration,
    nodes: u64,
    events: u64,
    heap_pops: u64,
    entries: u64,
    frames: u64,
    candidates: u64,
    pruned: u64,
}

impl Layers {
    fn timed_sum(&self) -> Duration {
        self.build
            + self.run
            + self.finish
            + self.teardown
            + self.medium
            + self.digest
            + self.intervals
            + self.segments
            + self.wls
    }

    fn add(&mut self, o: &Layers) {
        self.build += o.build;
        self.run += o.run;
        self.finish += o.finish;
        self.teardown += o.teardown;
        self.medium += o.medium;
        self.digest += o.digest;
        self.intervals += o.intervals;
        self.segments += o.segments;
        self.wls += o.wls;
        self.wall += o.wall;
        self.nodes += o.nodes;
        self.events += o.events;
        self.heap_pops += o.heap_pops;
        self.entries += o.entries;
        self.frames += o.frames;
        self.candidates += o.candidates;
        self.pruned += o.pruned;
    }
}

/// Clock shared between the delegating medium (which the engine owns and
/// may in principle move across threads) and the traced execution.
#[derive(Debug, Default)]
struct MediumClock {
    ns: AtomicU64,
    frames: AtomicU64,
}

/// A `RadioMedium` that times every delivery and carrier-sense query of
/// the model it wraps and otherwise delegates everything.
#[derive(Debug)]
struct TimedMedium {
    inner: Box<dyn RadioMedium>,
    clock: Arc<MediumClock>,
}

impl TimedMedium {
    fn charge(&self, since: Instant) {
        self.clock
            .ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl RadioMedium for TimedMedium {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn receive(&mut self, emission: &Emission, to: NodeId, competing: &[OnAir]) -> Reception {
        self.inner.receive(emission, to, competing)
    }

    fn deliver(
        &mut self,
        emission: &Emission,
        nodes: &[NodeId],
        competing: &[OnAir],
    ) -> Vec<NodeId> {
        let t = Instant::now();
        let heard = self.inner.deliver(emission, nodes, competing);
        self.charge(t);
        self.clock.frames.fetch_add(1, Ordering::Relaxed);
        heard
    }

    fn carrier_senses(&mut self, listener: NodeId, frame: &OnAir, at: SimTime) -> bool {
        let t = Instant::now();
        let sensed = self.inner.carrier_senses(listener, frame, at);
        self.charge(t);
        sensed
    }

    fn counters(&self) -> Option<DeliveryCounters> {
        self.inner.counters()
    }

    fn effort(&self) -> Option<net_sim::radio::MediumEffort> {
        self.inner.effort()
    }

    fn topology(&self) -> Option<&Topology> {
        self.inner.topology()
    }

    fn reclaim_spatial_index(&mut self) -> Option<net_sim::radio::SpatialIndex> {
        self.inner.reclaim_spatial_index()
    }
}

fn placed(
    mut medium: Box<dyn PositionedMedium>,
    positions: &[(u32, f64, f64)],
) -> Box<dyn PositionedMedium> {
    for (id, x, y) in positions {
        medium.set_position(NodeId(*id), Position::new(*x, *y));
    }
    medium
}

fn geometric(
    base: &GeometrySpec,
    seed: u64,
    brute_force: bool,
    positions: &[(u32, f64, f64)],
) -> Box<dyn PositionedMedium> {
    let model: Box<dyn PositionedMedium> = match base {
        GeometrySpec::UnitDisk { range_m } => {
            let disk = UnitDisk::new(*range_m);
            Box::new(if brute_force {
                disk.without_spatial_index()
            } else {
                disk
            })
        }
        GeometrySpec::PathLoss(spec) => {
            let model = PathLoss::new(PathLossParams {
                tx_power_dbm: spec.tx_power_dbm,
                ref_loss_db: spec.ref_loss_db,
                exponent: spec.exponent,
                shadowing_sigma_db: spec.shadowing_sigma_db,
                sensitivity_dbm: spec.sensitivity_dbm,
                capture_margin_db: spec.capture_margin_db,
                cca_threshold_dbm: spec.cca_threshold_dbm,
                seed,
            });
            Box::new(if brute_force {
                model.without_spatial_index()
            } else {
                model
            })
        }
    };
    placed(model, positions)
}

/// A fresh copy of the propagation model `Scenario::build_in` installs,
/// built from the scenario's public spec.
fn model_of(s: &Scenario) -> Box<dyn RadioMedium> {
    let brute = s.brute_force_medium;
    match &s.medium {
        MediumSpec::Ideal => Box::new(Ideal::new(match &s.topology {
            TopologySpec::Full => Topology::full(),
            TopologySpec::Links(links) => Topology::from_links(
                &links
                    .iter()
                    .map(|(a, b)| (NodeId(*a), NodeId(*b)))
                    .collect::<Vec<_>>(),
            ),
        })),
        MediumSpec::UnitDisk { range_m, positions } => geometric(
            &GeometrySpec::UnitDisk { range_m: *range_m },
            s.seed,
            brute,
            positions,
        ),
        MediumSpec::PathLoss { model, positions } => geometric(
            &GeometrySpec::PathLoss(model.clone()),
            s.seed,
            brute,
            positions,
        ),
        MediumSpec::Mobility {
            base,
            positions,
            traces,
        } => {
            let mut mobility = Mobility::new(geometric(base, s.seed, brute, positions));
            for (id, waypoints) in traces {
                let waypoints = waypoints
                    .iter()
                    .map(|(us, x, y)| (SimTime::from_micros(*us), Position::new(*x, *y)))
                    .collect();
                mobility = mobility.with_trace(NodeId(*id), MobilityTrace::new(waypoints));
            }
            Box::new(mobility)
        }
    }
}

/// One node's recomposed analysis state, fed by its log sink.
struct Tap {
    digest: StreamDigest,
    scratch: Vec<u8>,
    intervals: IntervalBuilder,
    pool: ObservationPool,
    segments: SegmentBuilder,
    cpu_segments: u64,
    digest_t: Duration,
    intervals_t: Duration,
    segments_t: Duration,
}

impl Tap {
    fn accept(&mut self, chunk: &[LogEntry]) {
        let t0 = Instant::now();
        self.digest.fold_chunk(chunk, &mut self.scratch);
        let t1 = Instant::now();
        self.intervals.push_chunk(chunk);
        for iv in self.intervals.drain_completed() {
            self.pool.add(&iv);
        }
        let t2 = Instant::now();
        self.segments.push_chunk(chunk);
        self.cpu_segments += self.segments.drain_completed().count() as u64;
        let t3 = Instant::now();
        self.digest_t += t1 - t0;
        self.intervals_t += t2 - t1;
        self.segments_t += t3 - t2;
    }

    fn sink_time(&self) -> Duration {
        self.digest_t + self.intervals_t + self.segments_t
    }
}

/// What one node's recomposed pipeline produced, for the equivalence check.
struct NodeOut {
    entries: u64,
    digest: u64,
    cpu_segments: u64,
    regression_error: Option<f64>,
}

/// Runs `s` through the recomposed, timed pipeline.
fn traced_execute(s: &Scenario, scratch: &mut NetScratch) -> (Layers, Vec<NodeOut>) {
    let mut l = Layers::default();
    let start = Instant::now();

    let t = Instant::now();
    let mut net = s.build_in(scratch);
    let built = t.elapsed();
    // The medium swap exists only for tracing: it is in `wall`, not in any
    // layer.
    let clock = Arc::new(MediumClock::default());
    net.set_medium(Box::new(TimedMedium {
        inner: model_of(s),
        clock: clock.clone(),
    }));
    let t = Instant::now();
    net.set_trace_recording(false);
    let mut taps = Vec::new();
    for id in s.node_ids() {
        let kernel = net.node(id).expect("scenario node exists").kernel();
        let catalog = kernel.catalog().clone();
        let (cpu, ..) = kernel.device_ids();
        let tap = Rc::new(RefCell::new(Tap {
            digest: StreamDigest::with_encoding(s.log_encoding()),
            scratch: Vec::new(),
            intervals: IntervalBuilder::new(&catalog),
            pool: ObservationPool::new(),
            segments: SegmentBuilder::new(cpu, false),
            cpu_segments: 0,
            digest_t: Duration::ZERO,
            intervals_t: Duration::ZERO,
            segments_t: Duration::ZERO,
        }));
        let energy_per_count: Energy = kernel.config().icount.nominal_energy_per_pulse;
        let feed = tap.clone();
        net.set_node_log_sink(
            id,
            Box::new(move |chunk: &[LogEntry]| feed.borrow_mut().accept(chunk)),
        );
        taps.push((tap, catalog, energy_per_count));
    }
    l.build = built + t.elapsed();
    l.nodes = taps.len() as u64;

    let sink_time = |taps: &[(Rc<RefCell<Tap>>, _, _)]| -> Duration {
        taps.iter().map(|(tap, ..)| tap.borrow().sink_time()).sum()
    };
    let end = SimTime::ZERO + s.duration;
    let t = Instant::now();
    net.run_until(end);
    let run_wall = t.elapsed();
    let sink_in_run = sink_time(&taps);
    let medium = Duration::from_nanos(clock.ns.load(Ordering::Relaxed));
    l.run = run_wall.saturating_sub(sink_in_run + medium);
    l.medium = medium;
    let stats = net.engine().stats();
    l.events = stats.events_dispatched;
    l.heap_pops = stats.heap_pops;
    if let Some(c) = net.medium_counters() {
        l.candidates = c.candidates_examined;
        l.pruned = c.pruned_by_cutoff;
    }
    l.frames = clock.frames.load(Ordering::Relaxed);

    let t = Instant::now();
    let outputs = net.finish(end);
    let finish_wall = t.elapsed();
    l.finish = finish_wall.saturating_sub(sink_time(&taps) - sink_in_run);

    let t = Instant::now();
    net.reset_into(scratch);
    l.teardown = t.elapsed();

    let mut out = Vec::with_capacity(taps.len());
    for ((tap, catalog, energy_per_count), (_, node)) in taps.iter().zip(&outputs) {
        let mut tap = tap.borrow_mut();
        let tap = &mut *tap;
        let t0 = Instant::now();
        tap.intervals.flush(Some(node.final_stamp));
        for iv in tap.intervals.drain_completed() {
            tap.pool.add(&iv);
        }
        let t1 = Instant::now();
        tap.segments.flush(Some(node.final_stamp));
        tap.cpu_segments += tap.segments.drain_completed().count() as u64;
        let t2 = Instant::now();
        let fit = regress(
            &tap.pool.observations(*energy_per_count),
            catalog,
            RegressionOptions::default(),
        );
        let t3 = Instant::now();
        tap.intervals_t += t1 - t0;
        tap.segments_t += t2 - t1;
        l.wls += t3 - t2;
        l.digest += tap.digest_t;
        l.intervals += tap.intervals_t;
        l.segments += tap.segments_t;
        l.entries += tap.digest.entries();
        out.push(NodeOut {
            entries: tap.digest.entries(),
            digest: tap.digest.digest(),
            cpu_segments: tap.cpu_segments,
            regression_error: fit.ok().map(|r| r.relative_error),
        });
    }
    l.wall = start.elapsed();
    (l, out)
}

/// The recomposed pipeline must reproduce the fleet's per-node residue.
fn check_equivalent(result: &ScenarioResult, composed: &[NodeOut]) -> Result<(), String> {
    let metas = result.stream_meta();
    if metas.len() != composed.len() {
        return Err(format!("{}: node count differs", result.scenario.name));
    }
    for ((meta, summary), c) in metas.iter().zip(&result.summaries).zip(composed) {
        let same = meta.entries == c.entries
            && meta.entry_digest == c.digest
            && summary.cpu_segments == c.cpu_segments
            && summary.regression_error.map(f64::to_bits) == c.regression_error.map(f64::to_bits);
        if !same {
            return Err(format!(
                "{} node {}: composed digest {:#018x} ({} entries) != fleet {:#018x} ({} entries)",
                result.scenario.name,
                meta.node.as_u64(),
                c.digest,
                c.entries,
                meta.entry_digest,
                meta.entries
            ));
        }
    }
    Ok(())
}

/// The traced sample: the scenarios one job of the workload submits.
fn sample(workload: Workload, seed: u64) -> Job {
    inputs::pool(workload, seed, Scale::Full).swap_remove(0)
}

/// Measures one traced run of `workload` and returns its per-layer metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    workers: usize,
    work_dir: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let job = sample(workload, seed);
    let cells = job.scenarios.len();
    let passes = layer_passes(&job, Duration::from_secs(seconds), tally);

    let busy = runner_busy_frac(&job, workers, tally);
    let (merge_us, summary_us) = merge_costs(passes.results, workers);
    let cache = cache_costs(&job, &work_dir.join("trace-cache"), tally);
    let hit_frac = match workload {
        Workload::TenantMix => tenant_hit_frac(seed, &work_dir.join("trace-mix"), tally),
        // No cache sits in front of the batch workloads.
        Workload::LplSweep | Workload::DenseField => 0.0,
    };
    let serve_overhead = serve_overhead_frac(&job, workers, tally);
    let (bookkeeping_ns, instrumented_ratio) = bookkeeping(&job, seed, tally);

    let l = passes.layers;
    let exec = ns(passes.execute);
    let timed = ns(l.timed_sum());
    let unattributed = (exec - timed).abs() / exec;
    tally.record(if unattributed <= UNATTRIBUTED_BOUND {
        Ok(())
    } else {
        Err(format!(
            "reconciliation: timed layers cover {:.1} % of execute_streaming_in, outside ±{:.0} %",
            100.0 * timed / exec,
            100.0 * UNATTRIBUTED_BOUND
        ))
    });
    let c = passes.counts;
    let entries = l.entries as f64;
    vec![
        Metric::new(
            "fleet.build_us_per_node",
            "us",
            per(ns(l.build) / 1e3, l.nodes as f64),
        ),
        Metric::new(
            "fleet.execute_ms",
            "ms",
            exec / 1e6 / (passes.runs * cells) as f64,
        ),
        Metric::new("fleet.runner_busy_frac", "frac", busy),
        Metric::new("fleet.merge_us_per_result", "us", merge_us),
        Metric::new("fleet.summary_json_us", "us", summary_us),
        Metric::new("fleet.cache_probe_us", "us", cache.probe_us),
        Metric::new("fleet.cache_hit_frac", "frac", hit_frac),
        Metric::new(
            "fleet.cache_write_us_per_cell",
            "us",
            cache.write_us_per_cell,
        ),
        Metric::new(
            "sim.run_ns_per_event",
            "ns",
            per(ns(l.run), l.events as f64),
        ),
        Metric::new(
            "sim.heap_pops_per_event",
            "count",
            per(l.heap_pops as f64, l.events as f64),
        ),
        Metric::new("core.bookkeeping_ns_per_entry", "ns", bookkeeping_ns),
        Metric::new("core.instrumented_ratio", "ratio", instrumented_ratio),
        Metric::new("core.finish_ns_per_entry", "ns", per(ns(l.finish), entries)),
        Metric::new("core.digest_ns_per_entry", "ns", per(ns(l.digest), entries)),
        Metric::new(
            "net.deliver_ns_per_candidate",
            "ns",
            per(ns(l.medium), l.candidates as f64),
        ),
        Metric::new(
            "net.candidates_per_frame",
            "count",
            per(l.candidates as f64, l.frames as f64),
        ),
        Metric::new(
            "net.pruned_frac",
            "frac",
            per(l.pruned as f64, (l.pruned + l.candidates) as f64),
        ),
        Metric::new(
            "analysis.intervals_ns_per_entry",
            "ns",
            per(ns(l.intervals), entries),
        ),
        Metric::new(
            "analysis.segments_ns_per_entry",
            "ns",
            per(ns(l.segments), entries),
        ),
        Metric::new(
            "analysis.wls_us_per_node",
            "us",
            per(ns(l.wls) / 1e3, l.nodes as f64),
        ),
        Metric::new(
            "analysis.share_of_execute",
            "frac",
            ns(l.intervals + l.segments + l.wls) / exec,
        ),
        Metric::new("serve.overhead_frac", "frac", serve_overhead),
        Metric::new("sim.events", "count", c.events as f64),
        Metric::new("core.entries", "count", c.entries as f64),
        Metric::new("net.candidates", "count", c.candidates as f64),
        Metric::new("trace.unattributed_frac", "frac", unattributed),
        Metric::new("trace.overhead_frac", "frac", ns(l.wall) / exec - 1.0),
    ]
}

/// The layer passes' totals.
struct Passes {
    /// Summed over every traced execution.
    layers: Layers,
    /// One pass's exact counts (every pass must repeat them).
    counts: Layers,
    /// Summed untraced `execute_streaming_in` time of the same executions.
    execute: Duration,
    /// How many passes over the sample ran.
    runs: usize,
    /// Each pass's untraced results, in submission order, for the merge.
    results: Vec<Vec<ScenarioResult>>,
}

/// Alternates untraced and traced executions of every sample scenario
/// until `window` is spent (at least three passes), checking each traced
/// execution against its untraced twin.
fn layer_passes(job: &Job, window: Duration, tally: &mut Tally) -> Passes {
    let mut ws = SimWorkspace::new();
    let mut scratch = NetScratch::new();
    let mut p = Passes {
        layers: Layers::default(),
        counts: Layers::default(),
        execute: Duration::ZERO,
        runs: 0,
        results: Vec::new(),
    };
    // One untimed warm-up pass fills both pools.
    for (i, s) in job.scenarios.iter().enumerate() {
        let _ = ScenarioResult::execute_streaming_in(i, s.clone(), &mut ws);
        let _ = traced_execute(s, &mut scratch);
    }
    let started = Instant::now();
    while p.runs < 3 || started.elapsed() < window {
        let mut pass = Layers::default();
        let mut results = Vec::with_capacity(job.scenarios.len());
        for (i, s) in job.scenarios.iter().enumerate() {
            let traced_first = (p.runs + i).is_multiple_of(2);
            let mut traced = None;
            if traced_first {
                traced = Some(traced_execute(s, &mut scratch));
            }
            let t = Instant::now();
            let result = ScenarioResult::execute_streaming_in(i, s.clone(), &mut ws);
            p.execute += t.elapsed();
            let (layers, nodes) = traced.unwrap_or_else(|| traced_execute(s, &mut scratch));
            tally.record(check_equivalent(&result, &nodes));
            pass.add(&layers);
            results.push(result);
        }
        if p.runs == 0 {
            p.counts = pass;
        } else if (pass.events, pass.entries, pass.candidates)
            != (p.counts.events, p.counts.entries, p.counts.candidates)
        {
            tally.record(Err("exact counts changed between passes".to_string()));
        }
        p.layers.add(&pass);
        p.results.push(results);
        p.runs += 1;
    }
    p
}

/// Summed scenario span time over workers × wall, from the `quanto-obs`
/// profile of one `FleetRunner` run of the sample (median of [`PAIRS`]).
fn runner_busy_frac(job: &Job, workers: usize, tally: &mut Tally) -> f64 {
    let threads = workers.min(job.scenarios.len()).max(1);
    let mut fracs = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        quanto_obs::reset();
        quanto_obs::set_enabled(true);
        let t = Instant::now();
        let report = FleetRunner::new(workers).run(job.scenarios.clone());
        let wall = t.elapsed();
        quanto_obs::set_enabled(false);
        let profile = quanto_obs::Profile::build(&quanto_obs::harvest());
        quanto_obs::reset();
        tally.record(checks::report(&report));
        let busy_us: u64 = profile.scenarios.iter().map(|s| s.total_us).sum();
        fracs.push(busy_us as f64 / (threads as f64 * wall.as_secs_f64() * 1e6));
    }
    median(&fracs)
}

/// `ReportAccumulator::absorb` per result and `FleetReport::summary_json`,
/// µs, over every pass's results.
fn merge_costs(passes: Vec<Vec<ScenarioResult>>, workers: usize) -> (f64, f64) {
    let mut absorb = Duration::ZERO;
    let mut summary = Duration::ZERO;
    let mut merged = 0usize;
    let n = passes.len();
    for results in passes {
        let mut acc = ReportAccumulator::new(results.len(), Retention::Stream);
        merged += results.len();
        for result in results {
            let t = Instant::now();
            acc.absorb(result);
            absorb += t.elapsed();
        }
        let report = acc.finish(workers, Duration::ZERO, 0);
        let t = Instant::now();
        let json = report.summary_json();
        summary += t.elapsed();
        std::hint::black_box(json);
    }
    (
        ns(absorb) / 1e3 / merged as f64,
        ns(summary) / 1e3 / n as f64,
    )
}

struct CacheCosts {
    probe_us: f64,
    write_us_per_cell: f64,
}

/// Cache write cost (`run_cached` on an empty directory minus `run`, per
/// cell) and probe cost (`ResultCache::probe` on a warm directory), on one
/// thread; medians of [`PAIRS`] pairs.  The warm run must reproduce the
/// cold run's digest.
fn cache_costs(job: &Job, dir: &Path, tally: &mut Tally) -> CacheCosts {
    let cells = job.scenarios.len() as f64;
    let runner = FleetRunner::sequential();
    let mut writes = Vec::with_capacity(PAIRS);
    let mut probes = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let _ = std::fs::remove_dir_all(dir);
        let cache = match ResultCache::open(dir) {
            Ok(c) => c,
            Err(e) => {
                tally.record(Err(format!("cache dir: {e}")));
                return CacheCosts {
                    probe_us: 0.0,
                    write_us_per_cell: 0.0,
                };
            }
        };
        let t = Instant::now();
        let plain = runner.run(job.scenarios.clone());
        let plain_t = t.elapsed();
        let t = Instant::now();
        let cold = runner.run_cached(job.scenarios.clone(), Some(&cache));
        let cold_t = t.elapsed();
        writes.push((ns(cold_t) - ns(plain_t)) / 1e3 / cells);
        let t = Instant::now();
        let hits = job
            .scenarios
            .iter()
            .enumerate()
            .filter(|(i, s)| cache.probe(*i, s).is_some())
            .count();
        probes.push(ns(t.elapsed()) / 1e3 / cells);
        let warm = runner.run_cached(job.scenarios.clone(), Some(&cache));
        tally.record(if hits != job.scenarios.len() {
            Err(format!(
                "cache probe: {hits} of {} cells hit after a cold run",
                job.scenarios.len()
            ))
        } else if !(plain.digest() == cold.digest() && cold.digest() == warm.digest()) {
            Err("cache: cold, warm and uncached digests differ".to_string())
        } else {
            Ok(())
        });
    }
    let _ = std::fs::remove_dir_all(dir);
    CacheCosts {
        probe_us: median(&probes),
        write_us_per_cell: median(&writes),
    }
}

/// The share of `tenant_mix`'s submitted cells the result cache answers,
/// over each tenant's first [`MIX_SUBMISSIONS`] submissions replayed in
/// process against one empty cache.
fn tenant_hit_frac(seed: u64, dir: &Path, tally: &mut Tally) -> f64 {
    const MIX_SUBMISSIONS: u64 = 16;
    let _ = std::fs::remove_dir_all(dir);
    let cache = match ResultCache::open(dir) {
        Ok(c) => c,
        Err(e) => {
            tally.record(Err(format!("cache dir: {e}")));
            return 0.0;
        }
    };
    let runner = FleetRunner::sequential();
    for n in 0..MIX_SUBMISSIONS {
        for tenant in 0..2 {
            let grid = if n % 2 == 1 {
                inputs::resubmit_pick(seed, tenant, n / 2)
            } else {
                n / 2
            };
            runner.run_cached(
                inputs::tenant_job(seed, tenant, grid, Scale::Full).scenarios,
                Some(&cache),
            );
        }
    }
    let stats = cache.stats();
    let _ = std::fs::remove_dir_all(dir);
    per(stats.hits as f64, (stats.hits + stats.misses) as f64)
}

/// Served wall minus in-process wall for the sample at equal workers, over
/// the served wall (medians of [`PAIRS`] alternating pairs).  The served
/// digest must equal the in-process one.
fn serve_overhead_frac(job: &Job, workers: usize, tally: &mut Tally) -> f64 {
    let config = ServeConfig {
        workers,
        cache_dir: None,
    };
    let handle = match Server::bind("127.0.0.1:0", config) {
        Ok(server) => server.start(),
        Err(e) => {
            tally.record(Err(format!("bind: {e}")));
            return 0.0;
        }
    };
    let addr = handle.addr().to_string();
    let runner = FleetRunner::new(workers);
    let (mut served, mut local) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let t = Instant::now();
        let report = runner.run(job.scenarios.clone());
        local.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let outcome = client::run_sweep(&addr, &job.text, &GridOverrides::default(), |_| {});
        served.push(t.elapsed().as_secs_f64());
        let want = format!("{:#018x}", report.digest());
        tally.record(match outcome {
            Err(e) => Err(format!("served sample: {e}")),
            Ok(out) if client::digest_of(&out.summary) == Some(want.as_str()) => Ok(()),
            Ok(out) => Err(format!(
                "served digest {:?} != in-process {want}",
                client::digest_of(&out.summary)
            )),
        });
    }
    handle.shutdown();
    let served = median(&served);
    (served - median(&local)) / served
}

/// The same single node run with `NodeConfig::quanto_enabled` on and off:
/// the extra ns per log entry and the on/off wall ratio (medians of
/// [`PAIRS`] alternating pairs).  The node is the sample's first LPL or
/// Blink cell — or, for a workload without one, the `lpl_sweep` pool's
/// first cell for the same seed.
fn bookkeeping(job: &Job, seed: u64, tally: &mut Tally) -> (f64, f64) {
    let single = |s: &&Scenario| matches!(s.app, AppSpec::Blink | AppSpec::LplListener { .. });
    let cell = match job.scenarios.iter().find(single) {
        Some(s) => s.clone(),
        None => sample(Workload::LplSweep, seed).scenarios.swap_remove(0),
    };
    let fleet_entries: u64 = ScenarioResult::execute_streaming(0, cell.clone())
        .stream_meta()
        .iter()
        .map(|m| m.entries)
        .sum();
    let (mut on, mut off, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let (on_t, entries) = run_single(&cell, true);
        let (off_t, _) = run_single(&cell, false);
        if entries != fleet_entries {
            tally.record(Err(format!(
                "bookkeeping node: {entries} entries, the fleet logged {fleet_entries}"
            )));
            return (0.0, 0.0);
        }
        on.push(ns(on_t));
        off.push(ns(off_t));
        ratio.push(ns(on_t) / ns(off_t));
    }
    tally.record(Ok(()));
    (
        (median(&on) - median(&off)) / fleet_entries as f64,
        median(&ratio),
    )
}

/// Builds the cell's one node by hand (so `quanto_enabled` can be set),
/// runs it with a counting sink, and returns the run+finish time and the
/// entries logged.
fn run_single(s: &Scenario, quanto: bool) -> (Duration, u64) {
    let mut net = NetSim::new();
    let id = NodeId(1);
    let mut config = match s.app {
        AppSpec::LplListener { .. } => lpl_node_config(id, s.channel),
        _ => NodeConfig::new(id),
    };
    config.radio_channel = s.channel;
    if s.seed_nodes {
        config.seed = s
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.as_u64() + 1);
    }
    config.quanto_enabled = quanto;
    match s.app {
        AppSpec::LplListener { interference_duty } => {
            net.add_node(config, Box::new(LplListenerApp));
            if interference_duty > 0.0 {
                net.add_interferer(paper_interference(interference_duty, s.seed));
            }
        }
        _ => {
            net.add_node(config, Box::new(BlinkApp::new()));
        }
    }
    net.set_trace_recording(false);
    let entries = Rc::new(RefCell::new(0u64));
    let count = entries.clone();
    net.set_node_log_sink(
        id,
        Box::new(move |chunk: &[LogEntry]| *count.borrow_mut() += chunk.len() as u64),
    );
    let end = SimTime::ZERO + s.duration;
    let t = Instant::now();
    net.run_until(end);
    std::hint::black_box(net.finish(end));
    let elapsed = t.elapsed();
    drop(net);
    let n = *entries.borrow();
    (elapsed, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass of the layer measurement over a miniature of each workload:
    /// exact counts repeat for a seed, differ across seeds, and the
    /// recomposed pipeline matches the fleet's digests.
    #[test]
    fn exact_counts_repeat_per_seed_and_differ_across_seeds() {
        for workload in [
            Workload::LplSweep,
            Workload::DenseField,
            Workload::TenantMix,
        ] {
            let counts = |seed| {
                let job = inputs::pool(workload, seed, Scale::Test).swap_remove(0);
                let mut tally = Tally::default();
                let p = layer_passes(&job, Duration::ZERO, &mut tally);
                assert!(tally.correct(), "{workload:?}: {:?}", tally.failures);
                (p.counts.events, p.counts.entries, p.counts.candidates)
            };
            let a = counts(11);
            assert_eq!(a, counts(11), "{workload:?}: same seed, same counts");
            assert_ne!(a, counts(12), "{workload:?}: another seed, other counts");
            assert!(a.0 > 0 && a.1 > 0, "{workload:?}: work happened");
            if workload != Workload::LplSweep {
                assert!(a.2 > 0, "{workload:?}: frames met candidates");
            }
        }
    }

    #[test]
    fn bookkeeping_node_matches_the_fleet_entry_count() {
        let job = inputs::pool(Workload::LplSweep, 3, Scale::Test).swap_remove(0);
        for cell in &job.scenarios {
            let fleet: u64 = ScenarioResult::execute_streaming(0, cell.clone())
                .stream_meta()
                .iter()
                .map(|m| m.entries)
                .sum();
            assert_eq!(run_single(cell, true).1, fleet, "{}", cell.name);
        }
    }
}
