//! Smoke tests of the figure harness at reduced instruction counts: every
//! artifact builds, has the right shape, and its aggregates are
//! arithmetically consistent.

use diq::sim::{figures, Harness};

fn harness() -> Harness {
    Harness::with_instructions(1_500)
}

#[test]
fn all_eighteen_artifacts_build() {
    let h = harness();
    let figs = figures::all(&h);
    assert_eq!(figs.len(), 18);
    for (f, (id, _)) in figs.iter().zip(figures::ALL) {
        assert_eq!(f.id, id, "the table's id names the figure it builds");
        assert!(!f.rows.is_empty(), "{} is empty", f.id);
        // Every artifact renders and serializes.
        assert!(f.to_string().contains(&f.id));
        assert!(f.to_json().contains(&f.id));
    }
}

#[test]
fn loss_figures_cover_their_suites() {
    let h = harness();
    let f2 = figures::fig2(&h);
    assert_eq!(f2.rows.len(), 12 + 1, "12 SPECint benchmarks + HARMEAN");
    assert_eq!(f2.headers.len(), 7, "benchmark + six sweep configs");
    let f3 = figures::fig3(&h);
    assert_eq!(f3.rows.len(), 14 + 1, "14 SPECfp benchmarks + HARMEAN");
    assert!(f3.headers[1].starts_with("IssueFIFO_16x16_"));
    let f4 = figures::fig4(&h);
    assert!(f4.headers[1].starts_with("LatFIFO_"));
    let f6 = figures::fig6(&h);
    assert!(f6.headers[1].starts_with("MixBUFF_"));
}

#[test]
fn ablations_cover_their_sweeps() {
    let h = harness();
    let chains = figures::ablation_chains(&h);
    let budgets: Vec<&str> = chains.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(budgets, ["1", "2", "4", "8", "16"]);
    for budget in budgets {
        let loss = chains
            .value(budget, "loss vs unbounded IQ")
            .unwrap_or_else(|| panic!("{budget} chains: no loss"));
        assert!(loss.is_finite(), "{budget} chains: loss {loss}");
    }
    let priority = figures::ablation_priority(&h);
    assert_eq!(priority.rows.len(), 14, "one row per SPECfp benchmark");
    assert!(priority.value("swim", "heuristic gain").is_some());
}

#[test]
fn ipc_figures_parse_numerically() {
    let h = harness();
    let f8 = figures::fig8(&h);
    for bench in ["swim", "mgrid", "art", "HARMEAN"] {
        for col in ["IQ_64_64", "IF_distr", "MB_distr"] {
            let v = f8
                .value(bench, col)
                .unwrap_or_else(|| panic!("{bench}/{col} missing"));
            assert!(v > 0.0 && v < 8.0, "{bench}/{col} = {v}");
        }
    }
}

#[test]
fn breakdowns_sum_to_100_percent() {
    let h = harness();
    for (fig, label) in [
        (figures::fig9(&h), "fig9"),
        (figures::fig10(&h), "fig10"),
        (figures::fig11(&h), "fig11"),
    ] {
        for col in ["SPECINT", "SPECFP"] {
            let total: f64 = fig
                .rows
                .iter()
                .map(|r| fig.value(&r[0], col).unwrap())
                .sum();
            assert!(
                (total - 100.0).abs() < 1.5,
                "{label}/{col} sums to {total}%"
            );
        }
    }
}

#[test]
fn normalized_figures_have_unit_baselines() {
    let h = harness();
    for fig in [
        figures::fig12(&h),
        figures::fig13(&h),
        figures::fig14(&h),
        figures::fig15(&h),
    ] {
        for col in ["SPECINT", "SPECFP"] {
            let v = fig.value("IQ_64_64", col).unwrap();
            assert!((v - 1.0).abs() < 1e-9, "{}/{col} baseline = {v}", fig.id);
        }
    }
}

#[test]
fn headline_rows_reference_paper_numbers() {
    let h = harness();
    let f = figures::headline(&h);
    assert!(f.rows.len() >= 7);
    // Every row carries both a paper value and a measured value.
    for row in &f.rows {
        assert!(!row[1].is_empty() && !row[2].is_empty());
        assert!(row[2].contains('%'));
    }
}
