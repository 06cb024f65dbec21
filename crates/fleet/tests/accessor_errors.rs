//! The fallible-accessor contract: delivery-counter lookups fail with
//! *descriptive* errors (never panics), and the machine-readable report
//! stays well-formed when the data a field would describe was never
//! tracked.

use hw_model::SimDuration;
use quanto_fleet::{FleetRunner, MediumSpec, Scenario, ScenarioResult};

fn bounce(d: u64) -> Scenario {
    Scenario::bounce(SimDuration::from_secs(d))
}

#[test]
fn counter_error_names_the_medium_and_the_alternatives() {
    let ideal = ScenarioResult::execute_streaming(0, bounce(1));
    assert!(!ideal.has_medium_counters());
    let err = ideal.medium_counters().unwrap_err();
    assert_eq!(err.medium, "ideal");
    assert_eq!(err.scenario, "bounce_1s");
    let msg = err.to_string();
    assert!(msg.contains("does not track delivery counters"), "{msg}");
    for alternative in ["unit_disk", "path_loss", "mobility"] {
        assert!(
            msg.contains(alternative),
            "{msg} should suggest {alternative}"
        );
    }
    // A geometric medium answers on the same streaming path.
    let disk = ScenarioResult::execute_streaming(
        0,
        bounce(2).with_medium(MediumSpec::UnitDisk {
            range_m: 100.0,
            positions: vec![(1, 0.0, 0.0), (4, 5.0, 0.0)],
        }),
    );
    assert!(disk.medium_counters().unwrap().delivered > 0);
}

/// `summary_json` must stay structurally valid when counters are untracked:
/// `"delivery":null`, balanced braces and brackets throughout.
#[test]
fn summary_json_is_well_formed_without_counters() {
    let report =
        FleetRunner::sequential().run(vec![bounce(1), Scenario::idle(SimDuration::from_secs(1))]);
    let json = report.summary_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"delivery\":null"), "{json}");
    // The stream digest is the only digest key: the entry count follows it.
    let digest = format!(
        "\"digest\":\"{:#018x}\",\"total_log_entries\":",
        report.digest()
    );
    assert!(json.contains(&digest), "{json}");
    assert!(json.contains("\"cpu_segments\":"), "{json}");
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            json.matches(open).count(),
            json.matches(close).count(),
            "unbalanced {open}{close} in {json}"
        );
    }
}
