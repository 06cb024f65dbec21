//! Figure 14: detail of a normal LPL wake-up versus a false-positive
//! wake-up, showing radio power-state episodes and the CPU activities
//! involved (VTimer for the scheduled check, the unbound receive proxy for
//! the false positive).

use analysis::{episode_durations, TextTable};
use hw_model::catalog::radio_rx_state;
use quanto_fleet::{scenarios, Scenario, ScenarioResult};

fn main() {
    let duration = quanto_bench::duration_from_args(14);
    quanto_bench::header(
        "Figure 14 — normal vs false-positive LPL wake-ups",
        "Section 4.3",
    );
    // The same declarative spec the sweeps use, run through the
    // materializing call because the wake-up classification re-reads the
    // raw log (byte-identical to the old sequential run_lpl_experiment).
    let run = scenarios::into_lpl_run(ScenarioResult::execute(
        0,
        Scenario::lpl(17, 0.18, duration),
    ));
    let ctx = &run.context;
    let out = &run.output;

    let intervals = analysis::power_intervals(&out.log, &ctx.catalog, Some(out.final_stamp));
    let episodes = episode_durations(&intervals, ctx.sinks.radio_rx, |s| {
        s == radio_rx_state::LISTEN
    });
    let mut t = TextTable::new(vec!["wake-up #", "radio on-time (ms)", "classification"])
        .with_title("Radio wake-up episodes");
    for (i, d) in episodes.iter().enumerate() {
        let class = if d.as_millis_f64() > 50.0 {
            "false positive (energy detected, no packet)"
        } else {
            "normal wake-up"
        };
        t.row(vec![
            (i + 1).to_string(),
            format!("{:.1}", d.as_millis_f64()),
            class.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Paper: normal wake-ups return to sleep within a few ms; false positives keep the radio on ~100 ms."
    );
    println!(
        "Estimated radio listen draw from the regression: {} (paper: 18.46 mA / 61.8 mW at 3.35 V)",
        run.context
            .catalog
            .sink(ctx.sinks.radio_rx)
            .state(radio_rx_state::LISTEN)
            .current
    );

    println!("\nCPU activities during the first false positive:");
    if let Some((idx, _)) = episodes
        .iter()
        .enumerate()
        .find(|(_, d)| d.as_millis_f64() > 50.0)
    {
        // Locate that episode's time window.
        let mut seen = 0usize;
        let mut window = None;
        let mut in_ep = false;
        let mut start = hw_model::SimTime::ZERO;
        for iv in &intervals {
            let on = iv.states[ctx.sinks.radio_rx.as_usize()] == radio_rx_state::LISTEN;
            if on && !in_ep {
                start = iv.start;
            }
            if !on && in_ep {
                if seen == idx {
                    window = Some((start, iv.start));
                    break;
                }
                seen += 1;
            }
            in_ep = on;
        }
        if let Some((s, e)) = window {
            let segs =
                analysis::activity_segments(&out.log, ctx.cpu_dev, false, Some(out.final_stamp));
            let mut t = TextTable::new(vec!["start (ms)", "end (ms)", "activity"]);
            for seg in segs
                .iter()
                .filter(|seg| seg.end > s && seg.start < e && !seg.label.is_idle())
            {
                t.row(vec![
                    format!("{:.3}", seg.start.as_millis_f64()),
                    format!("{:.3}", seg.end.as_millis_f64()),
                    ctx.label_name(seg.label),
                ]);
            }
            println!("{}", t.render());
        }
    } else {
        println!("(no false positive observed in this run — increase --seconds)");
    }
}
