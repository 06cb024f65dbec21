//! Figure 13: 802.11 b/g interference versus low-power listening — cumulative
//! energy, radio duty cycle, false-positive rate and average power on
//! 802.15.4 channel 17 (under the access point) versus channel 26 (clear).
//!
//! The two channels are the fleet's declarative comparison batch, each run
//! through the materializing `ScenarioResult::execute` because the LPL
//! analysis re-reads the raw logs (byte-identical to the sequential
//! `run_lpl_experiment` driver).

use analysis::{pct, TextTable};
use quanto_fleet::{scenarios, ScenarioResult};

fn main() {
    let duration = quanto_bench::duration_from_args(14);
    quanto_bench::header(
        "Figure 13 — 802.11 interference on low-power listening",
        "Section 4.3",
    );
    let mut runs = scenarios::lpl_comparison(duration)
        .into_iter()
        .enumerate()
        .map(|(i, s)| scenarios::into_lpl_run(ScenarioResult::execute(i, s)));
    let (ch17, ch26) = (runs.next().unwrap(), runs.next().unwrap());

    let mut summary = TextTable::new(vec![
        "Channel",
        "Duty cycle",
        "Wake-ups",
        "False positives",
        "FP rate",
        "Avg power (mW)",
        "Total energy (mJ)",
    ])
    .with_title("LPL under interference (802.11b on Wi-Fi channel 6)");
    for run in [&ch17, &ch26] {
        let total = run
            .cumulative_energy
            .last()
            .map(|(_, e)| *e)
            .unwrap_or(hw_model::Energy::ZERO);
        summary.row(vec![
            format!("{}", run.channel),
            pct(run.duty_cycle),
            run.wakeups.to_string(),
            run.false_positives.to_string(),
            pct(run.false_positive_rate),
            format!("{:.3}", run.average_power.as_milli_watts()),
            format!("{:.2}", total.as_milli_joules()),
        ]);
    }
    println!("{}", summary.render());
    println!("Paper: channel 17 — 5.58 % duty cycle, 17.8 % false positives, 1.43 mW;");
    println!("       channel 26 — 2.22 % duty cycle, no false positives, 0.92 mW.");

    println!("\nCumulative energy over time (one point per second):");
    let mut series = TextTable::new(vec!["t (s)", "ch 17 (mJ)", "ch 26 (mJ)"]);
    let sample = |run: &quanto_apps::LplRun, t_s: f64| {
        run.cumulative_energy
            .iter()
            .take_while(|(t, _)| t.as_secs_f64() <= t_s)
            .last()
            .map(|(_, e)| e.as_milli_joules())
            .unwrap_or(0.0)
    };
    let secs = duration.as_secs_f64() as u64;
    for s in 0..=secs {
        series.row(vec![
            s.to_string(),
            format!("{:.2}", sample(&ch17, s as f64)),
            format!("{:.2}", sample(&ch26, s as f64)),
        ]);
    }
    println!("{}", series.render());
}
