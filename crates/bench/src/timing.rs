//! Timing experiments (Figs. 2–3, 8–13 and Table III), all driven by the
//! calibrated cluster simulator.

use acp_collectives::{ClusterCost, NetworkTier, Topology, TwoLevelCost};
use acp_models::Model;
use acp_simulator::{
    simulate, ExperimentConfig, HardwareProfile, IterationReport, OptLevel, Strategy,
};

use crate::table::{ms, TextTable};

/// A grid of simulated iteration reports (`None` marks an out-of-memory
/// configuration, as Sign-SGD on BERT-Large).
#[derive(Debug, Clone)]
pub struct TimingGrid {
    /// Experiment title (e.g. `"Fig. 2"`).
    pub title: String,
    /// Label of the row dimension.
    pub row_label: String,
    /// Row names.
    pub rows: Vec<String>,
    /// Column names.
    pub cols: Vec<String>,
    /// `rows × cols` reports.
    pub cells: Vec<Vec<Option<IterationReport>>>,
    /// Optional free-form note rendered under the table.
    pub note: Option<String>,
}

impl TimingGrid {
    /// The report at (`row`, `col`), if the configuration fit in memory.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn cell(&self, row: usize, col: usize) -> Option<&IterationReport> {
        self.cells[row][col].as_ref()
    }

    /// Total iteration time at (`row`, `col`) in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or the cell is OOM.
    pub fn total(&self, row: usize, col: usize) -> f64 {
        self.cell(row, col)
            .expect("configuration ran out of memory")
            .total
    }

    /// Renders total iteration times (ms) as a table.
    pub fn render_totals(&self) -> String {
        let mut header = vec![self.row_label.clone()];
        header.extend(self.cols.iter().cloned());
        let mut t = TextTable::new(header);
        for (name, row) in self.rows.iter().zip(&self.cells) {
            let mut cells = vec![name.clone()];
            for c in row {
                cells.push(match c {
                    Some(r) => ms(r.total),
                    None => "OOM".to_string(),
                });
            }
            t.push_row(cells);
        }
        let mut out = format!("{}\n{}", self.title, t.render());
        if let Some(n) = &self.note {
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// Renders the three-way breakdown (FF&BP / compression /
    /// non-overlapped communication, in ms) for every cell.
    pub fn render_breakdowns(&self) -> String {
        let mut t = TextTable::new([
            self.row_label.clone(),
            "method".into(),
            "total".into(),
            "ff&bp".into(),
            "compress".into(),
            "comm".into(),
        ]);
        for (name, row) in self.rows.iter().zip(&self.cells) {
            for (col, c) in self.cols.iter().zip(row) {
                match c {
                    Some(r) => t.push_row([
                        name.clone(),
                        col.clone(),
                        ms(r.total),
                        ms(r.ffbp),
                        ms(r.compression.max(0.0)),
                        ms(r.non_overlapped_comm),
                    ]),
                    None => t.push_row([
                        name.clone(),
                        col.clone(),
                        "OOM".into(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]),
                }
            }
        }
        let mut out = format!("{}\n{}", self.title, t.render());
        if let Some(n) = &self.note {
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

fn run_cell(cfg: &ExperimentConfig) -> Option<IterationReport> {
    simulate(cfg).ok()
}

/// The four compression-characterization methods of §III.
fn characterization_methods(model: Model) -> Vec<(String, Strategy)> {
    vec![
        ("S-SGD".into(), Strategy::SSgd),
        ("Sign-SGD".into(), Strategy::SignSgd),
        ("Top-k SGD".into(), Strategy::TopkSgd { density: 0.001 }),
        (
            "Power-SGD".into(),
            Strategy::PowerSgd {
                rank: model.paper_rank(),
            },
        ),
    ]
}

/// The four optimized methods of the evaluation (§V).
fn evaluation_methods(model: Model) -> Vec<(String, Strategy)> {
    let rank = model.paper_rank();
    vec![
        ("S-SGD".into(), Strategy::SSgd),
        ("Power-SGD".into(), Strategy::PowerSgd { rank }),
        ("Power-SGD*".into(), Strategy::PowerSgdStar { rank }),
        ("ACP-SGD".into(), Strategy::AcpSgd { rank }),
    ]
}

fn grid_over_models<F>(title: &str, models: &[Model], methods: F) -> TimingGrid
where
    F: Fn(Model) -> Vec<(String, Strategy)>,
{
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut cols = Vec::new();
    for &model in models {
        let method_list = methods(model);
        if cols.is_empty() {
            cols = method_list.iter().map(|(n, _)| n.clone()).collect();
        }
        rows.push(model.label().to_string());
        cells.push(
            method_list
                .iter()
                .map(|(_, s)| run_cell(&ExperimentConfig::paper_testbed(model, *s)))
                .collect(),
        );
    }
    TimingGrid {
        title: title.to_string(),
        row_label: "model".to_string(),
        rows,
        cols,
        cells,
        note: None,
    }
}

/// Fig. 2: iteration time of S-SGD vs Sign-SGD / Top-k / Power-SGD on the
/// four models, 32 GPUs, 10 GbE.
pub fn fig2() -> TimingGrid {
    let mut g = grid_over_models(
        "Fig. 2: average iteration time (ms), 32 GPUs, 10GbE",
        &Model::evaluation_models(),
        characterization_methods,
    );
    g.note =
        Some("OOM: Sign-SGD exceeds GPU memory on BERT-Large (as in the paper, §III-B).".into());
    g
}

/// Fig. 3: time breakdowns of the characterization methods on ResNet-50
/// and BERT-Base.
pub fn fig3() -> TimingGrid {
    grid_over_models(
        "Fig. 3: time breakdowns (ms) on ResNet-50 and BERT-Base",
        &[Model::ResNet50, Model::BertBase],
        characterization_methods,
    )
}

/// Table III: iteration time of S-SGD / Power-SGD / Power-SGD* / ACP-SGD.
pub fn table3() -> TimingGrid {
    grid_over_models(
        "Table III: average iteration time (ms), 32 GPUs, 10GbE",
        &Model::evaluation_models(),
        evaluation_methods,
    )
}

/// Fig. 8: time breakdowns of the evaluation methods on ResNet-50 and
/// BERT-Base.
pub fn fig8() -> TimingGrid {
    grid_over_models(
        "Fig. 8: time breakdowns (ms) on ResNet-50 and BERT-Base",
        &[Model::ResNet50, Model::BertBase],
        evaluation_methods,
    )
}

/// Fig. 9: benefits of WFBP and TF, step by step, for S-SGD / Power-SGD* /
/// ACP-SGD on ResNet-152 and BERT-Large.
pub fn fig9() -> TimingGrid {
    let models = [Model::ResNet152, Model::BertLarge];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for model in models {
        let rank = model.paper_rank();
        for (name, strategy) in [
            ("S-SGD".to_string(), Strategy::SSgd),
            ("Power-SGD".to_string(), Strategy::PowerSgdStar { rank }),
            ("ACP-SGD".to_string(), Strategy::AcpSgd { rank }),
        ] {
            rows.push(format!("{} {}", model.label(), name));
            let mut row = Vec::new();
            for opt in OptLevel::all() {
                let mut cfg = ExperimentConfig::paper_testbed(model, strategy);
                cfg.opt = opt;
                row.push(run_cell(&cfg));
            }
            cells.push(row);
        }
    }
    TimingGrid {
        title: "Fig. 9: system optimizations step-by-step (ms)".to_string(),
        row_label: "model method".to_string(),
        rows,
        cols: OptLevel::all()
            .iter()
            .map(|o| o.label().to_string())
            .collect(),
        cells,
        note: Some("Power-SGD here denotes the hook implementation (Power-SGD*).".into()),
    }
}

/// Buffer sizes swept in Fig. 10 (MB).
pub const FIG10_BUFFER_MB: [usize; 7] = [0, 1, 5, 25, 100, 500, 1500];

/// Fig. 10: buffer-size sweep on BERT-Large for Power-SGD* and ACP-SGD at
/// ranks 32 and 256.
pub fn fig10() -> TimingGrid {
    let model = Model::BertLarge;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (name, mk) in [
        ("Power-SGD", Strategy::PowerSgdStar { rank: 32 }),
        ("ACP-SGD", Strategy::AcpSgd { rank: 32 }),
        ("Power-SGD r256", Strategy::PowerSgdStar { rank: 256 }),
        ("ACP-SGD r256", Strategy::AcpSgd { rank: 256 }),
    ] {
        rows.push(name.to_string());
        let mut row = Vec::new();
        for mb in FIG10_BUFFER_MB {
            let mut cfg = ExperimentConfig::paper_testbed(model, mk);
            cfg.buffer_bytes = mb * 1024 * 1024;
            if mb == 0 {
                cfg.opt = OptLevel::Wfbp; // 0 MB = no tensor fusion
            }
            row.push(run_cell(&cfg));
        }
        cells.push(row);
    }
    TimingGrid {
        title: "Fig. 10: effect of buffer size (ms), BERT-Large".to_string(),
        row_label: "method".to_string(),
        rows,
        cols: FIG10_BUFFER_MB.iter().map(|mb| format!("{mb}MB")).collect(),
        cells,
        note: Some("0MB disables fusion (pure WFBP); 1500MB fuses everything (no WFBP).".into()),
    }
}

/// Fig. 11(a): batch-size sweep on ResNet-152.
pub fn fig11a() -> TimingGrid {
    let model = Model::ResNet152;
    let batches = [16usize, 32];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (name, strategy) in evaluation_methods(model) {
        if name == "Power-SGD" {
            continue; // the paper compares S-SGD, Power-SGD* and ACP-SGD here
        }
        rows.push(name);
        let mut row = Vec::new();
        for &b in &batches {
            let mut cfg = ExperimentConfig::paper_testbed(model, strategy);
            cfg.batch_size = b;
            row.push(run_cell(&cfg));
        }
        cells.push(row);
    }
    TimingGrid {
        title: "Fig. 11(a): effect of batch size (ms), ResNet-152".to_string(),
        row_label: "method".to_string(),
        rows,
        cols: batches.iter().map(|b| format!("b={b}")).collect(),
        cells,
        note: None,
    }
}

/// Ranks swept in Fig. 11(b).
pub const FIG11B_RANKS: [usize; 4] = [32, 64, 128, 256];

/// Fig. 11(b): rank sweep on BERT-Large.
pub fn fig11b() -> TimingGrid {
    let model = Model::BertLarge;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for name in ["Power-SGD", "ACP-SGD"] {
        rows.push(name.to_string());
        let mut row = Vec::new();
        for &rank in &FIG11B_RANKS {
            let strategy = if name == "Power-SGD" {
                Strategy::PowerSgdStar { rank }
            } else {
                Strategy::AcpSgd { rank }
            };
            row.push(run_cell(&ExperimentConfig::paper_testbed(model, strategy)));
        }
        cells.push(row);
    }
    TimingGrid {
        title: "Fig. 11(b): effect of rank (ms), BERT-Large".to_string(),
        row_label: "method".to_string(),
        rows,
        cols: FIG11B_RANKS.iter().map(|r| format!("r={r}")).collect(),
        cells,
        note: None,
    }
}

/// Cluster sizes swept in Fig. 12.
pub const FIG12_WORKERS: [usize; 4] = [8, 16, 32, 64];

/// Fig. 12: scaling from 8 to 64 GPUs (ResNet-152, 10 GbE).
pub fn fig12() -> TimingGrid {
    let model = Model::ResNet152;
    let rank = model.paper_rank();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (name, strategy) in [
        ("S-SGD".to_string(), Strategy::SSgd),
        ("Power-SGD".to_string(), Strategy::PowerSgdStar { rank }),
        ("ACP-SGD".to_string(), Strategy::AcpSgd { rank }),
    ] {
        rows.push(name);
        let mut row = Vec::new();
        for &workers in &FIG12_WORKERS {
            let mut cfg = ExperimentConfig::paper_testbed(model, strategy);
            cfg.hardware = HardwareProfile::with_cluster(workers, NetworkTier::TenGbE);
            row.push(run_cell(&cfg));
        }
        cells.push(row);
    }
    TimingGrid {
        title: "Fig. 12: effect of the number of GPUs (ms), ResNet-152".to_string(),
        row_label: "method".to_string(),
        rows,
        cols: FIG12_WORKERS.iter().map(|w| format!("{w} GPUs")).collect(),
        cells,
        note: None,
    }
}

/// Network tiers swept in Fig. 13.
pub const FIG13_TIERS: [NetworkTier; 3] = [
    NetworkTier::OneGbE,
    NetworkTier::TenGbE,
    NetworkTier::HundredGbIb,
];

/// Fig. 13: effect of network bandwidth (ResNet-50 and BERT-Base, 32 GPUs).
pub fn fig13() -> TimingGrid {
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for model in [Model::ResNet50, Model::BertBase] {
        let rank = model.paper_rank();
        for (name, strategy) in [
            ("S-SGD".to_string(), Strategy::SSgd),
            ("Power-SGD".to_string(), Strategy::PowerSgdStar { rank }),
            ("ACP-SGD".to_string(), Strategy::AcpSgd { rank }),
        ] {
            rows.push(format!("{} {}", model.label(), name));
            let mut row = Vec::new();
            for tier in FIG13_TIERS {
                let mut cfg = ExperimentConfig::paper_testbed(model, strategy);
                cfg.hardware = HardwareProfile::with_cluster(32, tier);
                row.push(run_cell(&cfg));
            }
            cells.push(row);
        }
    }
    TimingGrid {
        title: "Fig. 13: effect of network bandwidth (ms), 32 GPUs".to_string(),
        row_label: "model method".to_string(),
        rows,
        cols: FIG13_TIERS.iter().map(|t| t.label().to_string()).collect(),
        cells,
        note: None,
    }
}

/// Extension experiment: Top-k (all-gather) vs gTop-k (sparse all-reduce)
/// vs ACP-SGD scaling from 8 to 64 GPUs on BERT-Base — the related-work
/// comparison the paper points at (reference \[33\]).
pub fn ext_scaling() -> TimingGrid {
    let model = Model::BertBase;
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (name, strategy) in [
        (
            "Top-k SGD".to_string(),
            Strategy::TopkSgd { density: 0.001 },
        ),
        (
            "gTop-k SGD".to_string(),
            Strategy::GTopkSgd { density: 0.001 },
        ),
        ("ACP-SGD".to_string(), Strategy::AcpSgd { rank: 32 }),
    ] {
        rows.push(name);
        let mut row = Vec::new();
        for &workers in &FIG12_WORKERS {
            let mut cfg = ExperimentConfig::paper_testbed(model, strategy);
            cfg.hardware = HardwareProfile::with_cluster(workers, NetworkTier::TenGbE);
            row.push(run_cell(&cfg));
        }
        cells.push(row);
    }
    TimingGrid {
        title: "Extension: sparse-collective scaling (ms), BERT-Base".to_string(),
        row_label: "method".to_string(),
        rows,
        cols: FIG12_WORKERS.iter().map(|w| format!("{w} GPUs")).collect(),
        cells,
        note: Some(
            "gTop-k replaces Top-k's O(kp) all-gather with an O(k log p) sparse all-reduce.".into(),
        ),
    }
}

/// Extension experiment: auto-tuned fusion buffer sizes vs the paper's
/// scaled 25 MB default (§IV-B's Bayesian-optimization remark, checked).
pub fn ext_tuned_buffers() -> TextTable {
    use acp_simulator::tune::tune_buffer_size;
    let mut t = TextTable::new([
        "model / method",
        "default 25MB (ms)",
        "tuned (ms)",
        "tuned buffer",
    ]);
    for (model, strategy) in [
        (Model::ResNet152, Strategy::SSgd),
        (Model::BertLarge, Strategy::AcpSgd { rank: 32 }),
        (Model::BertLarge, Strategy::AcpSgd { rank: 256 }),
        (Model::BertLarge, Strategy::PowerSgdStar { rank: 32 }),
    ] {
        let cfg = ExperimentConfig::paper_testbed(model, strategy);
        let default = simulate(&cfg).expect("fits in memory").total;
        let tuned = tune_buffer_size(&cfg).expect("fits in memory");
        t.push_row([
            format!("{} {}", model.label(), strategy.label()),
            ms(default),
            ms(tuned.iteration_seconds),
            format!("{:.1} MB", tuned.buffer_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    t
}

/// Largest divisor of `world` no bigger than its square root — the group
/// count that balances the two ring lengths, which minimizes the latency
/// terms the hierarchy pays.
fn balanced_groups(world: usize) -> usize {
    (1..=world)
        .take_while(|g| g * g <= world)
        .filter(|&g| world.is_multiple_of(g))
        .last()
        .unwrap_or(1)
}

/// Extension experiment: flat ring vs two-level ring-of-rings all-reduce
/// of one 25 MB bucket for worlds 8–1024, with 10 GbE inside sites and WAN
/// between them. The flat ring pays the WAN's α on `2(p−1)` steps; the
/// hierarchy crosses the WAN only `2(G−1)` times, so it wins by more the
/// larger the world.
pub fn ext_hierarchy() -> TextTable {
    const PAYLOAD_BYTES: usize = 25 * 1024 * 1024;
    let (intra, cross) = (NetworkTier::TenGbE, NetworkTier::Wan);
    let mut t = TextTable::new(["world", "layout", "flat (s)", "2-level (s)", "speedup"]);
    for world in [8usize, 16, 32, 64, 128, 256, 512, 1024] {
        let groups = balanced_groups(world);
        let topo = Topology::grouped(world, groups).expect("balanced_groups returns a divisor");
        let flat = ClusterCost::new(world, cross).all_reduce_time(PAYLOAD_BYTES);
        let two_level = TwoLevelCost::from_tiers(topo, intra, cross).all_reduce_time(PAYLOAD_BYTES);
        t.push_row([
            world.to_string(),
            format!("{groups}x{}", world / groups),
            format!("{flat:.4}"),
            format!("{two_level:.4}"),
            format!("{:.1}x", flat / two_level),
        ]);
    }
    t
}

/// Headline statistics matching the abstract: average/max speedups of
/// ACP-SGD over S-SGD and Power-SGD across Table III.
pub fn headline_speedups() -> (f64, f64, f64, f64) {
    let grid = table3();
    let mut over_ssgd = Vec::new();
    let mut over_power = Vec::new();
    for r in 0..grid.rows.len() {
        let acp = grid.total(r, 3);
        over_ssgd.push(grid.total(r, 0) / acp);
        over_power.push(grid.total(r, 1) / acp);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max(x));
    (
        avg(&over_ssgd),
        max(&over_ssgd),
        avg(&over_power),
        max(&over_power),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_marks_sign_oom_on_bert_large() {
        let g = fig2();
        assert_eq!(g.rows.len(), 4);
        let bert_large = g.rows.iter().position(|r| r == "BERT-Large").unwrap();
        let sign = g.cols.iter().position(|c| c == "Sign-SGD").unwrap();
        assert!(g.cell(bert_large, sign).is_none(), "Sign-SGD should OOM");
        assert!(g.cell(0, sign).is_some(), "Sign-SGD fits on ResNet-50");
        assert!(g.render_totals().contains("OOM"));
    }

    #[test]
    fn grouping_is_balanced() {
        assert_eq!(balanced_groups(8), 2);
        assert_eq!(balanced_groups(32), 4);
        assert_eq!(balanced_groups(128), 8);
        assert_eq!(balanced_groups(1024), 32);
        assert_eq!(balanced_groups(7), 1); // prime worlds degrade gracefully
    }

    #[test]
    fn table3_acp_wins_every_row() {
        let g = table3();
        for r in 0..g.rows.len() {
            let acp = g.total(r, 3);
            for c in 0..3 {
                assert!(acp < g.total(r, c), "{} col {c}", g.rows[r]);
            }
        }
    }

    #[test]
    fn headline_speedups_match_paper_shape() {
        let (avg_s, max_s, avg_p, _max_p) = headline_speedups();
        // Paper: 4.06x avg / 9.42x max over S-SGD; 1.34x avg over Power-SGD.
        assert!(avg_s > 2.5 && avg_s < 6.0, "avg over S-SGD {avg_s}");
        assert!(max_s > 6.0, "max over S-SGD {max_s}");
        assert!(avg_p > 1.0, "avg over Power-SGD {avg_p}");
    }

    #[test]
    fn fig10_has_interior_optimum_at_rank256() {
        let g = fig10();
        let acp256 = g.rows.iter().position(|r| r == "ACP-SGD r256").unwrap();
        let at = |mb: usize| {
            let c = FIG10_BUFFER_MB.iter().position(|&b| b == mb).unwrap();
            g.total(acp256, c)
        };
        assert!(at(25) < at(0), "25MB should beat no-TF");
        assert!(at(25) < at(1500), "25MB should beat full-TF");
    }

    #[test]
    fn fig12_ring_methods_scale_flat() {
        let g = fig12();
        for r in 0..g.rows.len() {
            let t8 = g.total(r, 0);
            let t64 = g.total(r, 3);
            assert!(t64 / t8 < 1.4, "{} scaling {}", g.rows[r], t64 / t8);
        }
    }

    #[test]
    fn fig13_speedup_shrinks_with_bandwidth() {
        let g = fig13();
        // BERT-Base rows are 3..6; S-SGD at row 3, ACP at row 5.
        let s = 3;
        let a = 5;
        let speedup = |c: usize| g.total(s, c) / g.total(a, c);
        assert!(speedup(0) > speedup(1));
        assert!(speedup(1) > speedup(2));
        assert!(speedup(2) > 1.0);
    }

    #[test]
    fn renders_are_nonempty() {
        for s in [
            fig3().render_breakdowns(),
            fig9().render_totals(),
            fig11a().render_totals(),
        ] {
            assert!(s.lines().count() > 3, "{s}");
        }
    }
}
