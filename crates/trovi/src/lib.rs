//! Trovi: the digital-artifact hub.
//!
//! §2/§3.5/§5: AutoLearn is packaged as Jupyter notebooks published on
//! Trovi, "an experiment hub integrated with the testbed ... so that users
//! can not only find experimental artifacts, but interact with them
//! easily". Trovi tracks, per artifact, "the number of views as well as
//! executions ... defined as the execution of at least one cell in the
//! artifact packaging", plus version lifecycle and metadata — the exact
//! metrics §5 reports for AutoLearn (35 launch clicks, 9 distinct clicking
//! users, 2 users executing ≥1 cell, 8 published versions).
//!
//! Modules: [`artifact`] (artifacts, versions, notebooks/cells),
//! [`metrics`] (the event log and the funnel rollup §5 reports), and
//! [`contrib`] (the fork → merge-request community flow §4 describes).

pub mod artifact;
pub mod contrib;
pub mod hub;
pub mod metrics;

pub use artifact::{Artifact, Cell, CellKind, Notebook, Version};
pub use contrib::{ContributionHub, Fork, MergeRequest, MergeStatus};
pub use hub::TroviHub;
pub use metrics::{ArtifactMetrics, EventKind, EventLog};
