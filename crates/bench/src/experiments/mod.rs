//! Experiment runners — one per paper artifact.
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | `fig2` | Fig 2, system monitoring panel | [`panels::fig2`] |
//! | `fig3` | Fig 3, query execution breakdown | [`panels::fig3`] |
//! | `seq` | §1/§4 response-time improvement over a query sequence | [`adaptive::seq`] |
//! | `adapt` | §4.2 query adaptation across workload epochs | [`adaptive::adapt`] |
//! | `dataset` | §4.2 attribute count / width sensitivity | [`adaptive::dataset`] |
//! | `race` | §4.3 friendly race (data-to-query time) | [`comparison::race`] |
//! | `updates` | §4.2 updates (append / replace) | [`comparison::updates`] |
//! | `knobs` | §1/§4.2 component toggles and budget sweep | [`comparison::knobs`] |

pub mod adaptive;
pub mod comparison;
pub mod panels;

use crate::report::Table;
use crate::workload::Scale;
use crate::BenchResult;

/// Output of one experiment: tables plus free-form observations.
#[derive(Debug, Default)]
pub struct ExperimentReport {
    /// Experiment id (e.g. `fig3`).
    pub id: String,
    /// What this reproduces.
    pub caption: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Shape observations: what the run shows against the paper's claim.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// New empty report.
    pub fn new(id: &str, caption: &str) -> Self {
        ExperimentReport {
            id: id.into(),
            caption: caption.into(),
            ..Default::default()
        }
    }

    /// Render everything as text.
    pub fn render(&self) -> String {
        let mut s = format!("#### Experiment {} — {}\n\n", self.id, self.caption);
        for t in &self.tables {
            s.push_str(&t.render());
            s.push('\n');
        }
        for n in &self.notes {
            s.push_str(&format!("note: {n}\n"));
        }
        s
    }
}

/// All experiment ids, in run order.
pub const ALL: &[&str] = &[
    "fig2", "fig3", "seq", "adapt", "dataset", "race", "updates", "knobs",
];

/// Run one experiment by id; an id not in [`ALL`] is an error.
pub fn run(id: &str, scale: Scale) -> BenchResult<ExperimentReport> {
    match id {
        "fig2" => panels::fig2(scale),
        "fig3" => panels::fig3(scale),
        "seq" => adaptive::seq(scale),
        "adapt" => adaptive::adapt(scale),
        "dataset" => adaptive::dataset(scale),
        "race" => comparison::race(scale),
        "updates" => comparison::updates(scale),
        "knobs" => comparison::knobs(scale),
        _ => Err(format!("unknown experiment {id:?}").into()),
    }
}
