//! # rtle-bench: the evaluation harness
//!
//! One function — and one binary under `src/bin/` — per figure of the
//! paper's evaluation section (§6, Figures 5–13). Each function sweeps the
//! paper's parameter grid on the deterministic simulator and returns the
//! series the figure plots; the binaries print them as CSV. The *real*
//! (non-simulated) implementation is measured by the standalone
//! `benchmark/` package; what runs real threads here is `slo_bench`, the
//! open-loop tail-latency harness ([`slo`]).
//!
//! Scale: every function takes a [`Scale`] so integration tests can run
//! miniature sweeps while the binaries run the full figures.
//!
//! Every binary also accepts `--json <path>` ([`report::BenchArgs`]) and
//! then writes its sweep results as a schema-versioned JSON document for
//! collection and diffing (see EXPERIMENTS.md).

pub mod diag;
pub mod figures;
pub mod report;
pub mod slo;
pub mod top;

pub use figures::{Scale, Series};
pub use report::{BenchArgs, Report};

/// Prints figure series as CSV: `label,threads,value` rows after a header.
pub fn print_csv(title: &str, value_name: &str, series: &[Series]) {
    println!("# {title}");
    println!("method,threads,{value_name}");
    for s in series {
        for p in &s.points {
            println!("{},{},{:.3}", s.label, p.threads, p.value);
        }
    }
}

/// Renders a compact fixed-width table (one column per thread count) for
/// eyeballing shapes in a terminal, mirroring how the paper's charts read.
pub fn print_table(title: &str, series: &[Series]) {
    print_table_prec(title, series, 1)
}

/// [`print_table`] with configurable decimal places (zoom panels need
/// more precision than throughput overviews).
pub fn print_table_prec(title: &str, series: &[Series], decimals: usize) {
    println!("== {title} ==");
    if series.is_empty() {
        return;
    }
    let threads: Vec<usize> = series[0].points.iter().map(|p| p.threads).collect();
    print!("{:<16}", "method");
    for t in &threads {
        print!("{t:>10}");
    }
    println!();
    for s in series {
        print!("{:<16}", s.label);
        for p in &s.points {
            print!("{:>10.prec$}", p.value, prec = decimals);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figures::SeriesPoint;

    #[test]
    fn csv_and_table_do_not_panic() {
        let s = vec![Series {
            label: "TLE".into(),
            points: vec![
                SeriesPoint {
                    threads: 1,
                    value: 1.0,
                },
                SeriesPoint {
                    threads: 2,
                    value: 1.9,
                },
            ],
        }];
        print_csv("t", "speedup", &s);
        print_table("t", &s);
        print_table("empty", &[]);
    }
}
