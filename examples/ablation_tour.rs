//! A tour of the design-choice ablations (beyond the paper's figures).
//!
//! Runs the ablation suite at a reduced size and prints each table with
//! a one-line takeaway. One runner serves every table, so the Linux and
//! default-SchedTask cells the tables share are simulated once. For
//! full-size numbers use `repro ablations`.
//!
//! ```text
//! cargo run --release --example ablation_tour
//! ```

use schedtask_suite::experiments::{ablations, table4_workload, ExpParams, Runner};

fn main() {
    let mut p = ExpParams::standard().with_cores(8);
    p.max_instructions = 2_400_000;
    p.warmup_instructions = 600_000;
    let runner = &mut Runner::new(1);

    println!("Design-choice ablations (8 cores, reduced budget)\n");

    println!(
        "{}",
        ablations::software_rendition_table(runner, &p).expect("table runs")
    );
    println!("→ The hardware register is what makes the Page-heatmap viable.\n");

    println!(
        "{}",
        ablations::realloc_threshold_table(runner, &p, &[0.0, 0.9, 0.98, 1.01])
            .expect("table runs")
    );
    println!("→ The paper's 0.98 trigger sits at the sweet spot between\n  adapting to drift and churning core allocations.\n");

    println!(
        "{}",
        ablations::migration_cost_table(runner, &p, &[0, 100, 400, 1_600]).expect("table runs")
    );
    println!("→ SchedTask's migrations must be cheap — the hardware assist matters.\n");

    println!(
        "{}",
        ablations::replacement_policy_table(runner, &p).expect("table runs")
    );
    println!("→ The benefit is about which lines compete, not replacement details.\n");

    println!(
        "{}",
        ablations::branch_model_table(runner, &p).expect("table runs")
    );
    println!("{}", ablations::nuca_table(runner, &p).expect("table runs"));
    println!(
        "→ Explicit branch and NUCA modelling shift absolute numbers, not\n  the conclusion.\n"
    );

    println!(
        "{}",
        table4_workload::beyond_8x_table(runner, &p, &[2.0, 8.0, 12.0]).expect("table runs")
    );
    println!("→ Past 8X the machine saturates and the benefit rolls off\n  (Section 6.3's closing observation).");
}
