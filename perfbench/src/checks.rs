//! Correctness checks shared by the untraced and traced runs.

use os_sim::NodeConfig;
use quanto_core::NodeId;
use quanto_fleet::FleetReport;

/// Metered energy may differ from the oscilloscope's ground truth by at
/// most this share on any node — or by one iCount pulse, whichever is
/// larger: the meter counts whole pulses, so a few-second cell can be a
/// fraction of a pulse short whatever the pipeline does.
pub const ENERGY_TOLERANCE: f64 = 1e-4;

/// The energy of one iCount pulse (every scenario node uses the default
/// meter).
fn pulse_uj() -> f64 {
    NodeConfig::new(NodeId(1))
        .icount
        .nominal_energy_per_pulse
        .as_micro_joules()
}

/// The per-report checks: no raw entry was ever held, and every node's
/// metered energy matches its ground truth.
pub fn report(report: &FleetReport) -> Result<(), String> {
    if report.peak_entries_held() != 0 {
        return Err(format!(
            "peak_entries_held = {} on the streaming path",
            report.peak_entries_held()
        ));
    }
    for result in &report.results {
        for (summary, meta) in result.summaries.iter().zip(result.stream_meta()) {
            let metered = summary.total_energy.as_micro_joules();
            let truth = meta.ground_truth_total.as_micro_joules();
            let gap = (metered - truth).abs();
            if gap.is_nan() || gap > (ENERGY_TOLERANCE * truth).max(pulse_uj()) {
                return Err(format!(
                    "{} node {}: metered {metered:.3} uJ vs ground truth {truth:.3} uJ",
                    result.scenario.name,
                    summary.node.as_u64(),
                ));
            }
        }
    }
    Ok(())
}

/// The report's attribution error, in percent: over every node, the larger
/// of its WLS regression `relative_error` (when the regression is solvable)
/// and the relative gap between its metered energy and ground truth.  Nodes
/// whose power states always co-occur (every Bounce node) cannot regress,
/// so the metering gap is their only accuracy figure.
pub fn attribution_error_pct(report: &FleetReport) -> f64 {
    report
        .results
        .iter()
        .flat_map(|r| r.summaries.iter().zip(r.stream_meta()))
        .map(|(summary, meta)| {
            let truth = meta.ground_truth_total.as_micro_joules();
            let gap = ((summary.total_energy.as_micro_joules() - truth) / truth).abs();
            summary.regression_error.unwrap_or(0.0).max(gap) * 100.0
        })
        .fold(0.0, f64::max)
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
