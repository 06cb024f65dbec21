//! Offline stand-in for the crates.io `criterion` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! slice of criterion's API its benches use: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`] with [`BenchmarkGroup::sample_size`] and
//! [`BenchmarkGroup::throughput`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.  It measures wall-clock
//! time with `std::time::Instant` and prints a per-benchmark summary line;
//! there is no statistical analysis, warm-up tuning or HTML report.

use std::time::Instant;

/// How batched inputs are grouped per timing measurement (accepted for API
/// compatibility; every batch size runs one input per measurement here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small setup output; criterion would batch many per allocation.
    SmallInput,
    /// Large setup output; criterion would batch few.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// How much work one iteration does, so a summary line can also report the
/// median time per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// One iteration processes this many elements.
    Elements(u64),
}

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The timing harness handed to each benchmark closure.
pub struct Bencher {
    samples: usize,
    /// Nanoseconds per iteration, one entry per sample.
    recorded: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            recorded: Vec::new(),
        }
    }

    /// Times `routine`, called repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up iteration, untimed.
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.recorded.push(start.elapsed().as_nanos() as f64);
        }
    }

    /// Times `routine` on fresh inputs produced by `setup`; only the routine
    /// is on the clock.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.recorded.push(start.elapsed().as_nanos() as f64);
        }
    }

    fn summary(&self) -> Option<(f64, f64)> {
        if self.recorded.is_empty() {
            return None;
        }
        let mut sorted = self.recorded.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some((median, mean))
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    id: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut bencher = Bencher::new(samples);
    let wall = Instant::now();
    f(&mut bencher);
    let total = wall.elapsed();
    match bencher.summary() {
        Some((median, mean)) => {
            let per_element = match throughput {
                Some(Throughput::Elements(n)) if n > 0 => {
                    format!("  [{:.2} ns/element]", median / n as f64)
                }
                _ => String::new(),
            };
            println!(
                "bench {id:<48} median {:>12}  mean {:>12}  ({} samples){per_element}",
                fmt_ns(median),
                fmt_ns(mean),
                samples
            )
        }
        None => println!("bench {id:<48} completed in {total:?} (no timed iterations)"),
    }
}

/// The top-level benchmark registry.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Registers and immediately runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id.as_ref(), self.sample_size, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    /// Prints the closing line `criterion_main!` ends with.
    pub fn final_summary(&mut self) {
        println!("bench run complete");
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares how much work each iteration of the group's subsequent
    /// benchmarks does; their summary lines then add the median per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Registers and immediately runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(
            &format!("{}/{}", self.name, id.as_ref()),
            self.sample_size,
            self.throughput,
            f,
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Bundles benchmark functions into a group runner, like criterion's.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `main` running every group, like criterion's.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_requested_samples() {
        let mut b = Bencher::new(5);
        b.iter(|| 1 + 1);
        assert_eq!(b.recorded.len(), 5);
        assert!(b.summary().is_some());
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut setups = 0;
        let mut b = Bencher::new(4);
        b.iter_batched(
            || {
                setups += 1;
                vec![0u8; 16]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        // One warm-up setup plus one per timed sample.
        assert_eq!(setups, 5);
    }

    #[test]
    fn groups_and_functions_run_their_closures() {
        let mut c = Criterion::default();
        let mut ran = 0;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        let mut group = c.benchmark_group("g");
        group
            .sample_size(2)
            .bench_function("inner", |b| b.iter(|| 2 * 2));
        group.finish();
        assert!(ran > 0);
    }
}
