//! The spatial medium index must be invisible at the fleet level: for every
//! scenario a sweep can express, the indexed run and the
//! `without_spatial_index()` brute-force run must produce byte-identical
//! digests, identical delivery counters and identical raw logs.  These are
//! the fleet-side teeth of the net-sim `spatial_equivalence` proptests.

use hw_model::SimDuration;
use quanto_fleet::{
    scenarios, FleetReport, FleetRunner, RawScenarioOutputs, ReportAccumulator, Retention,
    Scenario, ScenarioResult,
};

fn brute(batch: Vec<Scenario>) -> Vec<Scenario> {
    batch
        .into_iter()
        .map(|s| s.without_spatial_index())
        .collect()
}

/// The batch through the materializing call, merged like a fleet run, with
/// every raw output alongside.
fn materialize(batch: Vec<Scenario>) -> (FleetReport, Vec<RawScenarioOutputs>) {
    let mut acc = ReportAccumulator::new(batch.len(), Retention::Stream);
    let mut raws = Vec::with_capacity(batch.len());
    for (i, s) in batch.into_iter().enumerate() {
        let (result, raw) = ScenarioResult::execute(i, s);
        acc.absorb(result);
        raws.push(raw);
    }
    (acc.finish(1, std::time::Duration::ZERO, 0), raws)
}

/// Every medium kind in the standard grid — ideal, unit disk, path loss and
/// a mobility walk — digests identically with and without the index.
#[test]
fn spatial_index_is_invisible_across_the_medium_grid() {
    let d = SimDuration::from_secs(4);
    let (fast, fast_raw) = materialize(scenarios::medium_grid(d));
    let (slow, slow_raw) = materialize(brute(scenarios::medium_grid(d)));
    assert_eq!(
        fast.digest(),
        slow.digest(),
        "the spatial index changed a medium-grid digest"
    );
    let raws = fast_raw.iter().zip(slow_raw.iter());
    for ((f, s), (raw_f, raw_s)) in fast.results.iter().zip(slow.results.iter()).zip(raws) {
        // Outcomes must match exactly; the effort fields differ by
        // construction (the brute scan examines all pairs, prunes none).
        assert_eq!(
            f.medium_counters().ok().map(|c| c.outcomes()),
            s.medium_counters().ok().map(|c| c.outcomes()),
            "{}: outcomes diverged between indexed and brute-force runs",
            f.scenario.name
        );
        for ((id_f, out_f), (_, out_s)) in raw_f.outputs.iter().zip(raw_s.outputs.iter()) {
            assert_eq!(out_f.log, out_s.log, "node {id_f} logs diverged");
        }
    }
}

/// The hidden-terminal stress line (captures, sensitivity-floor fades) over
/// several shadowing seeds, on the parallel runner — order-of-execution and
/// the index must both be invisible.
#[test]
fn spatial_index_is_invisible_under_capture_and_shadowing() {
    let d = SimDuration::from_secs(2);
    let batch = || {
        (1u64..=4)
            .map(|seed| scenarios::path_loss_stress(6, seed, d))
            .collect::<Vec<_>>()
    };
    let fast = FleetRunner::new(4).run(batch());
    let slow = FleetRunner::new(4).run(brute(batch()));
    assert_eq!(
        fast.digest(),
        slow.digest(),
        "the spatial index changed a stress digest under capture"
    );
    for (f, s) in fast.results.iter().zip(slow.results.iter()) {
        let (cf, cs) = (f.medium_counters().unwrap(), s.medium_counters().unwrap());
        assert_eq!(
            cf.outcomes(),
            cs.outcomes(),
            "{}: outcomes diverged",
            f.scenario.name
        );
        assert!(cf.delivered > 0, "{}: nothing delivered", f.scenario.name);
        // The index must have actually worked on the stress geometry, and
        // its effort accounting must conserve attempts.
        assert!(cf.pruned_by_cutoff > 0 || cf.candidates_examined == cf.attempts());
        assert_eq!(cf.candidates_examined + cf.pruned_by_cutoff, cf.attempts());
        assert_eq!(cs.pruned_by_cutoff, 0, "brute runs must never prune");
    }
}

/// Beyond the old 254-node cap: a 600-node stress line runs entirely through
/// the widened ids and the spatial fast path, and still digests identically
/// to the brute-force scan.
#[test]
fn spatial_index_is_invisible_beyond_the_v1_node_cap() {
    let d = SimDuration::from_millis(1500);
    let s = || scenarios::path_loss_stress(300, 7, d);
    assert!(
        s().node_ids().len() > 254,
        "the scenario must cross the cap"
    );
    let fast = FleetRunner::sequential().run(vec![s()]);
    let slow = FleetRunner::sequential().run(vec![s().without_spatial_index()]);
    assert_eq!(
        fast.digest(),
        slow.digest(),
        "the spatial index changed a 600-node digest"
    );
    assert_eq!(
        fast.results[0].medium_counters().unwrap().outcomes(),
        slow.results[0].medium_counters().unwrap().outcomes()
    );
}
