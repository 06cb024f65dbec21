//! Seeded workload inputs.  Every job is grid text, generated from the
//! workload seed alone; the program under test only ever sees the grids
//! (and, in process, the scenarios they expand to).

use hw_model::SimDuration;
use quanto_fleet::{GridSpec, Scenario};
use std::fmt::Write as _;

/// The three workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long single-node LPL and Blink cells on a `FleetRunner`, no cache.
    LplSweep,
    /// One ~1000-node Bounce-pairs scenario on a 2-D path-loss field.
    DenseField,
    /// Two closed-loop tenants on an in-process `quanto-serve` daemon.
    TenantMix,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lpl_sweep" => Some(Workload::LplSweep),
            "dense_field" => Some(Workload::DenseField),
            "tenant_mix" => Some(Workload::TenantMix),
            _ => None,
        }
    }
}

/// Input sizes: the benchmark's own, or a miniature for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// What the benchmark runs.
    Full,
    /// Seconds-long miniatures with the same shape, for the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

/// SplitMix64: the one deterministic generator every input comes from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream, derived from the workload seed and a
    /// stream label (so streams never share a sequence).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A scenario seed: nonzero and small enough to read in a grid name.
    fn cell_seed(&mut self) -> u64 {
        1 + self.below(1 << 31)
    }
}

/// One submittable job: its grid text and the scenarios it expands to.
#[derive(Debug, Clone)]
pub struct Job {
    /// The grid, as the serve protocol carries it.
    pub text: String,
    /// `GridSpec::parse(text).expand()`.
    pub scenarios: Vec<Scenario>,
}

impl Job {
    fn from_text(text: String) -> Job {
        let scenarios = GridSpec::parse(&text)
            .and_then(|grid| grid.expand())
            .unwrap_or_else(|e| panic!("generated grid must be valid: {e}\n{text}"));
        Job { text, scenarios }
    }

    /// Simulated node-seconds this job delivers.
    pub fn node_seconds(&self) -> f64 {
        self.scenarios
            .iter()
            .map(|s| s.node_ids().len() as f64 * s.duration.as_secs_f64())
            .sum()
    }
}

/// The job pool a batch workload cycles through (`lpl_sweep`,
/// `dense_field`).  `tenant_mix` generates its jobs on demand with
/// [`tenant_job`].
pub fn pool(workload: Workload, seed: u64, scale: Scale) -> Vec<Job> {
    match workload {
        Workload::LplSweep => lpl_pool(seed, scale),
        Workload::DenseField => dense_pool(seed, scale),
        Workload::TenantMix => vec![tenant_job(seed, 0, 0, scale)],
    }
}

fn seed_list(rng: &mut Rng, n: usize) -> String {
    (0..n)
        .map(|_| rng.cell_seed().to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Figure 13/14 as a batch: per job, `lpl_seeds` interference seeds ×
/// channels 17 and 26 under 18 % Wi-Fi duty, plus Blink cells.
fn lpl_pool(seed: u64, scale: Scale) -> Vec<Job> {
    let (jobs, lpl_seeds, lpl_s, blinks, blink_s) = match scale {
        Scale::Full => (6, 3, 1800, 2, 600),
        Scale::Test => (2, 1, 20, 1, 10),
    };
    let mut rng = Rng::new(seed, 1);
    (0..jobs)
        .map(|j| {
            let text = format!(
                "[grid]\nname = lpl_sweep_{j}\n\n\
                 [cell.lpl]\napp = lpl\ninterference = 0.18\nseconds = {lpl_s}\n\
                 seeds = {}\nchannels = 17, 26\nname = lpl_ch{{channel}}_seed{{seed}}\n\n\
                 [cell.blink]\napp = blink\nseconds = {blink_s}\nseeds = {}\n\
                 name = blink_seed{{seed}}\n",
                seed_list(&mut rng, lpl_seeds),
                seed_list(&mut rng, blinks),
            );
            Job::from_text(text)
        })
        .collect()
}

/// `lpl_sweep`'s accuracy panel: the paper's Figure 13 pair (channels 17
/// and 26 under the paper's interference seed) and Blink, 1800 s each.  A
/// channel-17 cell's regression error swings between 0.01 % and 1.1 % with
/// its interference seed, so a maximum over seed-drawn cells would measure
/// the draw; the panel is the same for every workload seed.
pub fn accuracy_panel() -> Vec<Scenario> {
    let d = SimDuration::from_secs(1800);
    vec![
        Scenario::lpl(17, 0.18, d),
        Scenario::lpl(26, 0.18, d),
        Scenario::blink(d),
    ]
}

/// Bounce pairs on a jittered 2-D lattice under log-distance path loss.
/// Pair anchors sit `SPACING` m apart (±`JITTER`), partners 5 m from their
/// anchor in a random direction, so each node has tens of nodes inside the
/// medium's ~183 m sensing cutoff.  Bounce originators start 25 ms apart in
/// node-id order, so within a few seconds only the lowest ids talk; pairs
/// take lattice cells in a seeded random order, which scatters the talkers
/// over the field instead of packing them into one corner, where collisions
/// would end a seed-dependent share of the exchanges early.
fn dense_pool(seed: u64, scale: Scale) -> Vec<Job> {
    const SPACING: f64 = 60.0;
    const JITTER: f64 = 15.0;
    let (jobs, pairs, seconds) = match scale {
        Scale::Full => (3, 500u32, 2),
        Scale::Test => (1, 8, 1),
    };
    let cols = (pairs as f64).sqrt().ceil() as u32;
    let mut rng = Rng::new(seed, 2);
    (0..jobs)
        .map(|j| {
            let mut cells: Vec<u32> = (0..pairs).collect();
            for i in (1..cells.len()).rev() {
                cells.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut positions = String::new();
            for (k, cell) in (0..pairs).zip(cells) {
                let x = (cell % cols) as f64 * SPACING + rng.uniform(-JITTER, JITTER);
                let y = (cell / cols) as f64 * SPACING + rng.uniform(-JITTER, JITTER);
                let angle = rng.uniform(0.0, std::f64::consts::TAU);
                let _ = write!(
                    positions,
                    "{}:{},{} {}:{},{} ",
                    2 * k + 1,
                    x,
                    y,
                    2 * k + 2,
                    x + 5.0 * angle.cos(),
                    y + 5.0 * angle.sin()
                );
            }
            let text = format!(
                "[grid]\nname = dense_field_{j}\nseconds = {seconds}\n\n\
                 [cell.field]\napp = bounce_pairs\npairs = {pairs}\nseeds = {}\n\
                 medium = path_loss\npositions = {}\nname = field_{{nodes}}n_seed{{seed}}\n",
                rng.cell_seed(),
                positions.trim_end(),
            );
            Job::from_text(text)
        })
        .collect()
}

/// Tenant `tenant`'s `k`-th new grid: a short mixed grid of LPL, Blink,
/// Bounce through every medium kind and a hidden-terminal pairs cell.
/// Fresh seeds on every cell make it a cache miss throughout.
pub fn tenant_job(seed: u64, tenant: u64, k: u64, scale: Scale) -> Job {
    let (lpl_s, blink_s, bounce_s) = match scale {
        Scale::Full => (3, 4, 2),
        Scale::Test => (1, 1, 1),
    };
    let mut rng = Rng::new(seed, 3 + (tenant << 32) + k);
    let text = format!(
        "[grid]\nname = tenant{tenant}_job{k}\nseconds = {bounce_s}\n\n\
         [cell.lpl]\napp = lpl\ninterference = 0.18\nseconds = {lpl_s}\nseeds = {}\n\
         channels = 17, 26\nname = lpl_ch{{channel}}_seed{{seed}}\n\n\
         [cell.blink]\napp = blink\nseconds = {blink_s}\nseeds = {}\nname = blink_seed{{seed}}\n\n\
         [cell.bounce]\napp = bounce\nseeds = {}\nmedium = ideal, unit_disk, path_loss\n\
         range_m = 12\npositions = 1:0,0 4:9,0\nname = bounce_{{medium}}_seed{{seed}}\n\n\
         [cell.mobility]\napp = bounce\nseeds = {}\nmedium = mobility\nbase = unit_disk\n\
         range_m = 10\npositions = 1:0,0\ntrace = 4: 0%:5,0 50%:30,0 100%:5,0\n\
         name = mobility_seed{{seed}}\n\n\
         [cell.pairs]\napp = bounce_pairs\npairs = 4\nseeds = {}\nmedium = path_loss\n\
         placement = line 30 5\nname = pairs_{{nodes}}n_seed{{seed}}\n",
        seed_list(&mut rng, 2),
        seed_list(&mut rng, 1),
        seed_list(&mut rng, 2),
        seed_list(&mut rng, 1),
        seed_list(&mut rng, 1),
    );
    Job::from_text(text)
}

/// Which of its earlier new grids (`0..=newest`) a tenant resubmits next.
pub fn resubmit_pick(seed: u64, tenant: u64, newest: u64) -> u64 {
    Rng::new(seed, 0xFFFF_0000 + (tenant << 32) + newest).below(newest + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        for workload in [
            Workload::LplSweep,
            Workload::DenseField,
            Workload::TenantMix,
        ] {
            let texts = |seed| -> Vec<String> {
                pool(workload, seed, Scale::Test)
                    .into_iter()
                    .map(|j| j.text)
                    .collect()
            };
            assert_eq!(texts(5), texts(5), "{workload:?}");
            assert_ne!(texts(5), texts(6), "{workload:?}");
        }
        assert_ne!(
            tenant_job(5, 0, 0, Scale::Full).text,
            tenant_job(5, 1, 0, Scale::Full).text,
            "tenants submit different grids"
        );
    }

    #[test]
    fn full_size_inputs_have_the_documented_shape() {
        let lpl = pool(Workload::LplSweep, 1, Scale::Full);
        assert_eq!(lpl.len(), 6);
        assert!(lpl.iter().all(|j| j.scenarios.len() == 8));
        let dense = pool(Workload::DenseField, 1, Scale::Full);
        assert!(dense.iter().all(|j| j.scenarios.len() == 1
            && j.scenarios[0].node_ids().len() == 1000
            && j.scenarios[0].medium.kind() == "path_loss"));
        let tenant = tenant_job(1, 0, 0, Scale::Full);
        let kinds: Vec<&str> = tenant.scenarios.iter().map(|s| s.medium.kind()).collect();
        for kind in ["ideal", "unit_disk", "path_loss", "mobility"] {
            assert!(kinds.contains(&kind), "tenant grids cover {kind}");
        }
    }

    #[test]
    fn resubmissions_pick_an_earlier_grid() {
        for newest in 0..50 {
            assert!(resubmit_pick(9, 1, newest) <= newest);
        }
    }
}
