//! The untraced runs: each workload's closed loop, its correctness checks
//! and its end-to-end metrics.

use crate::checks;
use crate::inputs::{self, Job, Scale, Workload};
use crate::stats::{median, min_samples, percentile, JobSample, JobSplit, Metric, Tally};
use quanto_fleet::dist::GridOverrides;
use quanto_fleet::{FleetReport, FleetRunner, Scenario};
use quanto_serve::{client, ServeConfig, Server, ServerHandle};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 5;

/// A run never measures longer than this many times `--seconds` while it
/// waits for enough samples behind every percentile.
const MAX_STRETCH: u32 = 3;

/// The closed-loop tenants of `tenant_mix`.
const TENANTS: u64 = 2;

/// `tenant_mix` re-runs each tenant's first this-many new grids in process
/// after the window: their served digests must match, and
/// `attribution_error_pct` is computed over them, so neither the check's
/// cost nor the figure depends on how many jobs a run managed.  (Every
/// resubmission is checked against its own cold digest regardless.)
const VERIFIED_GRIDS: u64 = 40;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Measures one untraced run of `workload` and returns its metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    workers: usize,
    work_dir: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let window = Duration::from_secs(seconds);
    let outcome = match workload {
        Workload::LplSweep | Workload::DenseField => {
            batch_loop(workload, seed, window, workers, tally)
        }
        Workload::TenantMix => tenant_loop(seed, window, workers, work_dir, tally),
    };
    let split = JobSplit::of(&outcome.jobs);
    if !split.sufficient() {
        tally.record(Err(format!(
            "too few samples for the percentiles: {} cold, {} resubmitted",
            split.cold_ms.len(),
            split.resubmitted_ms.len()
        )));
    }
    let pick = |samples: &[f64], p: f64, label: &str| match percentile(samples, p) {
        Some(s) => {
            eprintln!(
                "  {label}: {:.3} ms (n={}, {} beyond)",
                s.value, s.samples, s.beyond
            );
            s.value
        }
        None => f64::NAN,
    };
    let metrics = vec![
        Metric::new("setup_s", "s", outcome.setup_s),
        Metric::new(
            "sim_node_s_per_s",
            "node_s/s",
            outcome.node_seconds / outcome.wall.as_secs_f64(),
        ),
        Metric::new("job_ms_p50", "ms", pick(&split.cold_ms, 0.5, "job p50")),
        Metric::new("job_ms_p90", "ms", pick(&split.cold_ms, 0.9, "job p90")),
        Metric::new(
            "warm_job_ms_p50",
            "ms",
            pick(&split.resubmitted_ms, 0.5, "warm job p50"),
        ),
        Metric::new(
            "first_result_ms_p50",
            "ms",
            pick(&split.cold_first_ms, 0.5, "first result p50"),
        ),
        Metric::new("attribution_error_pct", "%", outcome.attribution_error_pct),
    ];
    // Reported, not bounded: VmHWM creeps with every cold-workspace run
    // (see README.md), so it measures how long the loop ran as much as the
    // program's footprint.
    eprintln!("  peak_rss_mb {:.1} MB (VmHWM)", checks::peak_rss_mb());
    for m in &metrics {
        if !(m.value.is_finite() && m.value > 0.0) {
            tally.record(Err(format!("{} is not a positive number", m.name)));
        }
    }
    metrics
}

/// What a workload loop measured.
struct LoopOutcome {
    setup_s: f64,
    jobs: Vec<JobSample>,
    node_seconds: f64,
    wall: Duration,
    attribution_error_pct: f64,
}

/// Whether the loop may stop: the window is over and every percentile has
/// its samples, or the stretch limit is hit.
fn done(started: Instant, window: Duration, jobs: &[JobSample]) -> bool {
    let elapsed = started.elapsed();
    elapsed >= window * MAX_STRETCH || (elapsed >= window && JobSplit::of(jobs).sufficient())
}

/// One reference: the 1-thread report of a pool job, checked.
struct Reference {
    digest: u64,
    attribution_pct: f64,
}

/// Set-up for the batch workloads: generate the pool and compute every
/// job's 1-thread reference (which also warms the code and allocator).
/// `lpl_sweep` also runs its fixed accuracy panel, appended as the last
/// reference.
fn batch_setup(workload: Workload, seed: u64, tally: &mut Tally) -> (Vec<Job>, Vec<Reference>) {
    let pool = inputs::pool(workload, seed, Scale::Full);
    let mut batches: Vec<Vec<Scenario>> = pool.iter().map(|job| job.scenarios.clone()).collect();
    if workload == Workload::LplSweep {
        batches.push(inputs::accuracy_panel());
    }
    let refs = batches
        .into_iter()
        .map(|batch| {
            let report = FleetRunner::sequential().run(batch);
            tally.record(checks::report(&report));
            Reference {
                digest: report.digest(),
                attribution_pct: checks::attribution_error_pct(&report),
            }
        })
        .collect();
    (pool, refs)
}

/// `lpl_sweep` and `dense_field`: one client cycling through the pool on a
/// `FleetRunner` with `workers` threads and no cache.  Every job after the
/// first pass is a resubmission; with no cache it simulates again.
fn batch_loop(
    workload: Workload,
    seed: u64,
    window: Duration,
    workers: usize,
    tally: &mut Tally,
) -> LoopOutcome {
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    let mut prepared = None;
    for _ in 0..SETUP_PASSES {
        let t = Instant::now();
        let mut setup_tally = Tally::default();
        let (pool, refs) = batch_setup(workload, seed, &mut setup_tally);
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((pool, refs, setup_tally));
    }
    let (pool, refs, setup_tally) = prepared.expect("at least one set-up pass");
    tally.merge(setup_tally);

    let runner = FleetRunner::new(workers);
    let mut jobs = Vec::new();
    let mut node_seconds = 0.0;
    let started = Instant::now();
    let mut k = 0;
    while !done(started, window, &jobs) {
        let j = k % pool.len();
        let scenarios = pool[j].scenarios.clone();
        let t0 = Instant::now();
        let mut first = None;
        let report = catch_unwind(AssertUnwindSafe(|| {
            runner.run_with_progress(scenarios, |_| {
                first.get_or_insert_with(|| t0.elapsed());
            })
        }));
        let elapsed = t0.elapsed();
        let outcome = match report {
            Ok(report) => check_batch_job(&report, refs[j].digest),
            Err(_) => Err(format!("job {k}: a cell panicked")),
        };
        if outcome.is_ok() {
            node_seconds += pool[j].node_seconds();
        }
        jobs.push(JobSample {
            ms: ms(elapsed),
            first_ms: ms(first.unwrap_or(elapsed)),
            resubmitted: k >= pool.len(),
            simulated: true,
            ok: outcome.is_ok(),
        });
        tally.record(outcome);
        k += 1;
    }
    let wall = started.elapsed();
    // The panel, when there is one, is the last reference; otherwise the
    // figure covers every pool job.
    let accuracy = match workload {
        Workload::LplSweep => &refs[pool.len()..],
        _ => &refs[..],
    };
    let attribution_error_pct = accuracy
        .iter()
        .map(|r| r.attribution_pct)
        .fold(0.0, f64::max);
    LoopOutcome {
        setup_s: median(&setups),
        jobs,
        node_seconds,
        wall,
        attribution_error_pct,
    }
}

fn check_batch_job(report: &FleetReport, reference: u64) -> Result<(), String> {
    if report.digest() != reference {
        return Err(format!(
            "batch digest {:#018x} != 1-thread reference {reference:#018x}",
            report.digest()
        ));
    }
    checks::report(report)
}

/// A running `tenant_mix` daemon and its cache directory.
struct Daemon {
    handle: ServerHandle,
    cache_dir: PathBuf,
}

/// Set-up for `tenant_mix`: start the daemon over an empty cache, push one
/// warm-up grid through it (warming each worker's `SimWorkspace`), then
/// empty the cache again.
fn tenant_setup(seed: u64, workers: usize, dir: PathBuf) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir: {e}"))?;
    let config = ServeConfig {
        workers,
        cache_dir: Some(dir.clone()),
    };
    let handle = Server::bind("127.0.0.1:0", config)
        .map_err(|e| format!("bind: {e}"))?
        .start();
    // Tenant index TENANTS is nobody's: its grid never recurs in the loop.
    let warm_up = inputs::tenant_job(seed, TENANTS, 0, Scale::Full);
    let addr = handle.addr().to_string();
    client::run_sweep(&addr, &warm_up.text, &GridOverrides::default(), |_| {})
        .map_err(|e| format!("warm-up job: {e}"))?;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("cache dir: {e}"))? {
        let path = entry.map_err(|e| format!("cache dir: {e}"))?.path();
        std::fs::remove_file(&path).map_err(|e| format!("emptying the cache: {e}"))?;
    }
    Ok(Daemon {
        handle,
        cache_dir: dir,
    })
}

/// One tenant's submission, kept for the checks after the window.
struct Submission {
    tenant: u64,
    grid: u64,
    digest: Option<String>,
    sample: JobSample,
    error: Option<String>,
}

/// `tenant_mix`: two closed-loop tenants alternating a new grid with a
/// resubmission of one of their earlier grids, on one shared daemon.
fn tenant_loop(
    seed: u64,
    window: Duration,
    workers: usize,
    work_dir: &Path,
    tally: &mut Tally,
) -> LoopOutcome {
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    let mut daemon = None;
    for pass in 0..SETUP_PASSES {
        let t = Instant::now();
        match tenant_setup(seed, workers, work_dir.join(format!("cache{pass}"))) {
            Ok(d) => {
                setups.push(t.elapsed().as_secs_f64());
                if let Some(old) = daemon.replace(d) {
                    retire(old);
                }
            }
            Err(why) => tally.record(Err(format!("set-up: {why}"))),
        }
    }
    let Some(daemon) = daemon else {
        return LoopOutcome {
            setup_s: f64::NAN,
            jobs: Vec::new(),
            node_seconds: 0.0,
            wall: Duration::from_secs(1),
            attribution_error_pct: f64::NAN,
        };
    };
    let addr = daemon.handle.addr().to_string();

    let started = Instant::now();
    let (mut submissions, grids) = std::thread::scope(|scope| {
        let tenants: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                let addr = addr.as_str();
                scope.spawn(move || tenant_client(seed, tenant, addr, started, window))
            })
            .collect();
        let mut submissions = Vec::new();
        let mut grids = HashMap::new();
        for t in tenants {
            let (subs, tenant_grids) = t.join().expect("tenant thread panicked");
            submissions.extend(subs);
            grids.extend(tenant_grids);
        }
        (submissions, grids)
    });
    let wall = started.elapsed();
    eprintln!(
        "  window: {:.1} s, {} submissions",
        wall.as_secs_f64(),
        submissions.len()
    );
    retire(daemon);

    // Served digests against in-process runs of the same grids, plus every
    // report check, on the verified set.
    let runner = FleetRunner::new(workers);
    let mut verified: HashMap<(u64, u64), Result<String, String>> = HashMap::new();
    let mut attribution_error_pct: f64 = 0.0;
    for tenant in 0..TENANTS {
        for grid in 0..VERIFIED_GRIDS {
            let report = runner.run(inputs::tenant_job(seed, tenant, grid, Scale::Full).scenarios);
            attribution_error_pct =
                attribution_error_pct.max(checks::attribution_error_pct(&report));
            let outcome = checks::report(&report).map(|()| format!("{:#018x}", report.digest()));
            verified.insert((tenant, grid), outcome);
        }
    }

    let mut jobs = Vec::with_capacity(submissions.len());
    let mut node_seconds = 0.0;
    for sub in &mut submissions {
        if let (None, Some(reference)) = (&sub.error, verified.get(&(sub.tenant, sub.grid))) {
            sub.error = match (reference, &sub.digest) {
                (Err(why), _) => Some(format!("in-process run: {why}")),
                (Ok(want), Some(got)) if want != got => Some(format!(
                    "tenant {} grid {}: served digest {got} != in-process {want}",
                    sub.tenant, sub.grid
                )),
                (Ok(_), Some(_)) => None,
                (Ok(_), None) => Some("summary carries no digest".to_string()),
            };
        }
        sub.sample.ok = sub.error.is_none();
        if sub.sample.ok {
            node_seconds += grids[&(sub.tenant, sub.grid)].node_seconds();
        }
        jobs.push(sub.sample);
        tally.record(sub.error.take().map_or(Ok(()), Err));
    }
    LoopOutcome {
        setup_s: median(&setups),
        jobs,
        node_seconds,
        wall,
        attribution_error_pct,
    }
}

fn retire(daemon: Daemon) {
    daemon.handle.shutdown();
    let _ = std::fs::remove_dir_all(&daemon.cache_dir);
}

/// One tenant's closed loop: submit, wait for the final summary, submit the
/// next.  Even submissions are new grids, odd ones resubmit an earlier grid.
fn tenant_client(
    seed: u64,
    tenant: u64,
    addr: &str,
    started: Instant,
    window: Duration,
) -> (Vec<Submission>, HashMap<(u64, u64), Job>) {
    let mut grids: HashMap<u64, Job> = HashMap::new();
    let mut digests: HashMap<u64, String> = HashMap::new();
    let mut subs: Vec<Submission> = Vec::new();
    let mut n = 0u64;
    let (mut cold, mut resubmitted_ok) = (0usize, 0usize);
    loop {
        // Each tenant supplies its share of every sample floor.
        let elapsed = started.elapsed();
        let share = |p| min_samples(p).div_ceil(TENANTS as usize);
        let enough = cold >= share(0.9) && resubmitted_ok >= share(0.5);
        if elapsed >= window * MAX_STRETCH || (elapsed >= window && enough) {
            break;
        }
        let resubmitted = n % 2 == 1;
        let grid = if resubmitted {
            inputs::resubmit_pick(seed, tenant, n / 2)
        } else {
            n / 2
        };
        let job = grids
            .entry(grid)
            .or_insert_with(|| inputs::tenant_job(seed, tenant, grid, Scale::Full));
        let t0 = Instant::now();
        let mut first = None;
        let outcome = client::run_sweep(addr, &job.text, &GridOverrides::default(), |_| {
            first.get_or_insert_with(|| t0.elapsed());
        });
        let elapsed = t0.elapsed();
        let mut sub = Submission {
            tenant,
            grid,
            digest: None,
            sample: JobSample {
                ms: ms(elapsed),
                first_ms: ms(first.unwrap_or(elapsed)),
                resubmitted,
                simulated: true,
                ok: false,
            },
            error: None,
        };
        match outcome {
            Err(e) => sub.error = Some(format!("tenant {tenant} grid {grid}: {e}")),
            Ok(out) => {
                sub.sample.simulated = out.warm < out.total;
                sub.digest = client::digest_of(&out.summary).map(str::to_string);
                if resubmitted {
                    if out.warm != out.total {
                        sub.error = Some(format!(
                            "tenant {tenant} grid {grid}: resubmission answered {} of {} cells from the cache",
                            out.warm, out.total
                        ));
                    } else if digests.get(&grid) != sub.digest.as_ref() {
                        sub.error = Some(format!(
                            "tenant {tenant} grid {grid}: warm digest {:?} != cold digest {:?}",
                            sub.digest,
                            digests.get(&grid)
                        ));
                    }
                } else if let Some(d) = &sub.digest {
                    digests.insert(grid, d.clone());
                }
            }
        }
        // Tentative until the in-process verification after the window.
        sub.sample.ok = sub.error.is_none();
        if sub.sample.ok {
            cold += usize::from(sub.sample.simulated);
            resubmitted_ok += usize::from(resubmitted);
        }
        subs.push(sub);
        n += 1;
    }
    (
        subs,
        grids
            .into_iter()
            .map(|(g, job)| ((tenant, g), job))
            .collect(),
    )
}
