//! The radio medium as a sweep axis: cross-medium equivalences, thread-count
//! independence, and the delivery-counter contract.

use hw_model::SimDuration;
use quanto_core::NodeId;
use quanto_fleet::{
    scenarios, FleetRunner, GeometrySpec, MediumSpec, PathLossSpec, Scenario, ScenarioResult,
};

/// A unit disk with infinite range must behave exactly like the full
/// topology: same deliveries, same logs, same stamps — however far apart the
/// nodes sit.
#[test]
fn unit_disk_with_infinite_range_equals_full_topology() {
    let d = SimDuration::from_secs(4);
    let ideal = Scenario::bounce(d);
    let disk = Scenario::bounce(d).with_medium(MediumSpec::UnitDisk {
        range_m: f64::INFINITY,
        positions: vec![(1, 0.0, 0.0), (4, 1.0e9, 0.0)],
    });
    let (ra, raw_a) = ScenarioResult::execute(0, ideal);
    let (rb, raw_b) = ScenarioResult::execute(0, disk);
    for ((id_a, out_a), (id_b, out_b)) in raw_a.outputs.iter().zip(raw_b.outputs.iter()) {
        assert_eq!(id_a, id_b);
        assert_eq!(
            out_a.log, out_b.log,
            "node {id_a} diverged between ideal and infinite unit disk"
        );
        assert_eq!(out_a.final_stamp, out_b.final_stamp);
        assert_eq!(
            out_a.radio_stats.packets_received,
            out_b.radio_stats.packets_received
        );
    }
    // The disk *does* track counters (the digest differs only by them).
    assert!(rb.medium_counters().is_ok());
    assert!(ra.medium_counters().is_err());
}

/// A unit disk with zero range over distant nodes must behave like the empty
/// topology: nothing is ever delivered.
#[test]
fn unit_disk_out_of_range_equals_empty_topology() {
    let d = SimDuration::from_secs(2);
    let s = Scenario::bounce(d).with_medium(MediumSpec::UnitDisk {
        range_m: 1.0,
        positions: vec![(1, 0.0, 0.0), (4, 1000.0, 0.0)],
    });
    let report = FleetRunner::sequential().run(vec![s]);
    let r = &report.results[0];
    for s in &r.summaries {
        assert_eq!(s.packets_received, 0, "node {} heard a frame", s.node);
    }
    let c = r.medium_counters().expect("disk tracks counters");
    assert_eq!(c.delivered, 0);
    assert!(c.lost_out_of_range > 0, "attempts were made and lost");
}

/// Every medium kind must produce a thread-count-independent digest — the
/// per-emission loss RNG may not depend on execution order.
#[test]
fn medium_axis_digests_are_thread_count_independent() {
    let batch = || {
        let mut b = scenarios::medium_grid(SimDuration::from_secs(4));
        b.push(scenarios::path_loss_stress(3, 1, SimDuration::from_secs(2)));
        b
    };
    let sequential = FleetRunner::sequential().run(batch());
    let parallel = FleetRunner::new(4).run(batch());
    assert_eq!(sequential.digest(), parallel.digest());
    // The grid really covers all four kinds.
    let kinds: Vec<&str> = sequential.results.iter().map(|r| r.medium_kind).collect();
    for kind in ["ideal", "unit_disk", "path_loss", "mobility"] {
        assert!(kinds.contains(&kind), "medium grid is missing {kind}");
    }
}

/// Shadowing makes the path-loss medium's seed a real axis: different seeds
/// lose different frames; the same seed reproduces bit-for-bit.
#[test]
fn path_loss_seed_is_a_real_axis() {
    let d = SimDuration::from_secs(4);
    // 60 m apart: mean RSSI −93.3 dBm sits on the −94 dBm floor, so the
    // per-frame fade decides each delivery.
    let s = |seed| {
        vec![Scenario::bounce(d)
            .with_medium(MediumSpec::PathLoss {
                model: PathLossSpec::default(),
                positions: vec![(1, 0.0, 0.0), (4, 60.0, 0.0)],
            })
            .with_seed(seed)]
    };
    let a = FleetRunner::sequential().run(s(1));
    let a2 = FleetRunner::sequential().run(s(1));
    let b = FleetRunner::sequential().run(s(2));
    assert_eq!(a.digest(), a2.digest(), "same seed must reproduce");
    assert_ne!(
        a.digest(),
        b.digest(),
        "different seeds must fade differently"
    );
    // Isolate the shadowing RNG from the node RNGs: change only the
    // scenario seed (which feeds the medium) while `seed_nodes` stays false,
    // so a digest change can only come from the fades.
    let shadow_only = |seed| {
        let mut s = s(0).remove(0);
        s.seed = seed;
        s.seed_nodes = false;
        vec![s]
    };
    let sa = FleetRunner::sequential().run(shadow_only(1));
    let sb = FleetRunner::sequential().run(shadow_only(2));
    assert_ne!(
        sa.digest(),
        sb.digest(),
        "the scenario seed must reach the shadowing RNG even without seed_nodes"
    );
    let ca = a.results[0].medium_counters().unwrap();
    assert!(
        ca.lost_below_sensitivity > 0 && ca.delivered > 0,
        "at the sensitivity edge both outcomes must occur: {ca:?}"
    );
}

/// The mobility medium changes connectivity over time: a node that walks
/// away mid-run receives less than one that stays.
#[test]
fn mobility_trace_changes_connectivity_over_time() {
    let d = SimDuration::from_secs(8);
    let us = d.as_micros();
    let walker = |traces| {
        vec![Scenario::bounce(d).with_medium(MediumSpec::Mobility {
            base: GeometrySpec::UnitDisk { range_m: 10.0 },
            positions: vec![(1, 0.0, 0.0)],
            traces,
        })]
    };
    let stays = FleetRunner::sequential().run(walker(vec![(4, vec![(0, 5.0, 0.0)])]));
    let leaves =
        FleetRunner::sequential().run(walker(vec![(4, vec![(0, 5.0, 0.0), (us / 4, 500.0, 0.0)])]));
    let received = |report: &quanto_fleet::FleetReport| {
        report.results[0]
            .summary(NodeId(4))
            .expect("node 4 ran")
            .packets_received
    };
    assert!(
        received(&stays) > received(&leaves),
        "walking out of range must cost deliveries ({} vs {})",
        received(&stays),
        received(&leaves)
    );
    let c = leaves.results[0].medium_counters().unwrap();
    assert!(
        c.lost_out_of_range > 0,
        "the walk must strand frames: {c:?}"
    );
}

/// The stress profile exercises capture: with hidden-terminal pairs strung
/// along a line, some frames must be lost to stronger overlapping frames.
#[test]
fn path_loss_stress_profile_exercises_capture() {
    let report = FleetRunner::new(2).run(vec![scenarios::path_loss_stress(
        4,
        1,
        SimDuration::from_secs(4),
    )]);
    let c = report.results[0].medium_counters().unwrap();
    assert!(c.delivered > 0, "{c:?}");
    assert!(
        c.lost_captured > 0,
        "hidden terminals must collide somewhere: {c:?}"
    );
}
