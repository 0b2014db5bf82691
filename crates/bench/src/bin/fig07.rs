//! Figure 7: execution time under lock normalized to the lock-based
//! execution at the same thread count. 8192 keys, 20% updates.

use rtle_bench::{figures, print_csv, print_table, BenchArgs, Report};

fn main() {
    let args = BenchArgs::parse();
    let series = figures::fig07(args.scale());
    print_table("Figure 7 RelativeTimeUnderLock", &series);
    print_csv("Figure 7", "relative_time_under_lock", &series);
    let mut report = Report::new("fig07", args.scale());
    report.add_series(
        "relative_time_under_lock",
        "relative_time_under_lock",
        &series,
    );
    report.write_if_requested(args.json.as_deref());
}
