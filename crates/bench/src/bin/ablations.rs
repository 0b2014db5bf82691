//! Ablation sweeps for the design choices DESIGN.md calls out:
//! lazy vs eager lock subscription (§5) and the lock holder's
//! `uniq_*_orecs` barrier shortcut (§4.2).

use rtle_bench::{figures, print_csv, print_table, BenchArgs, Report};

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale();
    let lazy = figures::ablation_lazy_subscription(scale);
    print_table("Ablation: lazy vs eager subscription (ops/ms)", &lazy);
    print_csv("Ablation lazy", "ops_per_ms", &lazy);
    println!();
    let uniq = figures::ablation_uniq_shortcut(scale);
    print_table("Ablation: uniq-orecs shortcut (ops/ms)", &uniq);
    print_csv("Ablation uniq", "ops_per_ms", &uniq);
    println!();
    let ad = figures::ablation_adaptive(scale);
    print_table(
        "Beyond-paper: adaptive FG-TLE vs fixed configs (ops/ms)",
        &ad,
    );
    print_csv("Adaptive", "ops_per_ms", &ad);
    let mut report = Report::new("ablations", scale);
    report.add_series("lazy_subscription", "ops_per_ms", &lazy);
    report.add_series("uniq_shortcut", "ops_per_ms", &uniq);
    report.add_series("adaptive", "ops_per_ms", &ad);
    report.write_if_requested(args.json.as_deref());
}
