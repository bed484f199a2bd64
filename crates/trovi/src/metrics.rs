//! The artifact event log and the §5 metrics rollup.
//!
//! *"those can be obtained from Trovi, which for each artifact lists the
//! number of views as well as executions (benefit of platform integration),
//! defined as the execution of at least one cell in the artifact
//! packaging"*. The advantage the paper stresses is that these are
//! collected automatically, as a side effect of platform use — which is
//! exactly how this module works: the hub appends events, and every
//! [`EventLog::record`] also brings that artifact's running funnel up to
//! date, so a rollup is a lookup however long the log has grown. The
//! append-only log stays the source of truth: it is what serialises, and
//! deserialising replays it to rebuild the funnels.

use autolearn_util::rng::derive_rng;
use autolearn_util::SimTime;
use rand::Rng;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Artifact page view.
    View,
    /// "Launch" button click (spawns the Jupyter environment).
    LaunchClick,
    /// Execution of one notebook cell inside a launched artifact.
    CellExecution,
}

/// Dense ids for repeated names: id `i` is the `i`-th distinct name seen.
/// The map is lookup-only; `names` gives the ids back their spelling in
/// id order.
#[derive(Debug, Clone, Default)]
struct Interner {
    ids: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        // Ids are u32 to keep a logged event at 24 bytes; past 2^32 names
        // failing loudly beats handing out an id that aliases another.
        assert!(self.names.len() < u32::MAX as usize, "interner full");
        let id = self.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// One logged interaction, with user and artifact interned.
#[derive(Debug, Clone, Copy)]
struct Logged {
    user: u32,
    artifact: u32,
    kind: EventKind,
    at: SimTime,
}

/// One artifact's funnel, kept up to date on every [`EventLog::record`].
#[derive(Debug, Clone, Default)]
struct Funnel {
    views: usize,
    launch_clicks: usize,
    cell_executions: usize,
    clickers: HashSet<u32>,
    executors: HashSet<u32>,
}

impl Funnel {
    fn count(&mut self, user: u32, kind: EventKind) {
        match kind {
            EventKind::View => self.views += 1,
            EventKind::LaunchClick => {
                self.launch_clicks += 1;
                self.clickers.insert(user);
            }
            EventKind::CellExecution => {
                self.cell_executions += 1;
                self.executors.insert(user);
            }
        }
    }

    fn metrics(&self) -> ArtifactMetrics {
        ArtifactMetrics {
            views: self.views,
            launch_clicks: self.launch_clicks,
            unique_launch_users: self.clickers.len(),
            users_executed: self.executors.len(),
            cell_executions: self.cell_executions,
        }
    }
}

/// Append-only event log plus the per-artifact funnels derived from it.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Logged>,
    users: Interner,
    artifacts: Interner,
    /// Indexed by artifact id.
    funnels: Vec<Funnel>,
}

/// The §5 rollup for one artifact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArtifactMetrics {
    pub views: usize,
    pub launch_clicks: usize,
    pub unique_launch_users: usize,
    /// Users who executed at least one cell — Trovi's "execution" metric.
    pub users_executed: usize,
    pub cell_executions: usize,
}

/// How one event is written out: names spelled in full, so a serialised
/// log reads on its own and does not depend on interning order.
#[derive(Serialize, Deserialize)]
struct WireEvent {
    user: String,
    artifact: String,
    kind: EventKind,
    at: SimTime,
}

#[derive(Serialize, Deserialize)]
struct WireLog {
    events: Vec<WireEvent>,
}

impl Serialize for EventLog {
    fn serialize(&self) -> Value {
        let events = self
            .events
            .iter()
            .map(|e| WireEvent {
                user: self.users.name(e.user).to_string(),
                artifact: self.artifacts.name(e.artifact).to_string(),
                kind: e.kind,
                at: e.at,
            })
            .collect();
        WireLog { events }.serialize()
    }
}

impl Deserialize for EventLog {
    /// Replays the log through [`EventLog::record`], which rebuilds the
    /// interned ids and the funnels.
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let wire = WireLog::deserialize(v)?;
        let mut log = EventLog::new();
        for e in &wire.events {
            log.record(&e.user, &e.artifact, e.kind, e.at);
        }
        Ok(log)
    }
}

impl EventLog {
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Append one event and count it into its artifact's funnel.
    pub fn record(&mut self, user: &str, artifact: &str, kind: EventKind, at: SimTime) {
        let user = self.users.intern(user);
        let artifact = self.artifacts.intern(artifact);
        if artifact as usize == self.funnels.len() {
            self.funnels.push(Funnel::default());
        }
        self.funnels[artifact as usize].count(user, kind);
        self.events.push(Logged {
            user,
            artifact,
            kind,
            at,
        });
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The funnel for `artifact` (all zero for an artifact never seen).
    pub fn metrics_for(&self, artifact: &str) -> ArtifactMetrics {
        self.artifacts
            .id(artifact)
            .map(|id| self.funnels[id as usize].metrics())
            .unwrap_or_default()
    }

    /// Replay the engagement the paper reports for AutoLearn (§5): 35
    /// launch-button clicks from 9 users, 2 of whom executed at least one
    /// cell. Views are not reported numerically in the paper; the synthetic
    /// log gives each clicking user a page view first.
    pub fn autolearn_observed(artifact: &str) -> EventLog {
        let mut log = EventLog::new();
        // 9 users; clicks distributed to total 35 (9 users, heavy-tailed).
        let clicks_per_user = [10, 7, 5, 4, 3, 2, 2, 1, 1];
        debug_assert_eq!(clicks_per_user.iter().sum::<i32>(), 35);
        let mut t = 0.0;
        for (i, &n) in clicks_per_user.iter().enumerate() {
            let user = format!("user{}", i + 1);
            log.record(&user, artifact, EventKind::View, SimTime::from_secs(t));
            t += 60.0;
            for _ in 0..n {
                log.record(&user, artifact, EventKind::LaunchClick, SimTime::from_secs(t));
                t += 300.0;
            }
        }
        // The two users who actually executed cells.
        for user in ["user1", "user3"] {
            for _ in 0..4 {
                log.record(user, artifact, EventKind::CellExecution, SimTime::from_secs(t));
                t += 30.0;
            }
        }
        log
    }

    /// A configurable engagement funnel: `population` viewers, each
    /// clicking launch with `p_click`, each clicker executing cells with
    /// `p_execute`. Used for the §5 sensitivity experiment ("outcome rather
    /// than impact" — how the funnel narrows).
    pub fn synthetic_funnel(
        artifact: &str,
        population: usize,
        p_click: f64,
        p_execute: f64,
        seed: u64,
    ) -> EventLog {
        let mut rng = derive_rng(seed, "trovi-funnel");
        let mut log = EventLog::new();
        let mut t = 0.0;
        for i in 0..population {
            let user = format!("u{i}");
            log.record(&user, artifact, EventKind::View, SimTime::from_secs(t));
            t += 10.0;
            if rng.gen::<f64>() < p_click {
                let clicks = 1 + rng.gen_range(0..4);
                for _ in 0..clicks {
                    log.record(&user, artifact, EventKind::LaunchClick, SimTime::from_secs(t));
                    t += 10.0;
                }
                if rng.gen::<f64>() < p_execute {
                    for _ in 0..rng.gen_range(1..6) {
                        log.record(
                            &user,
                            artifact,
                            EventKind::CellExecution,
                            SimTime::from_secs(t),
                        );
                        t += 10.0;
                    }
                }
            }
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The rollup as a full scan of the log: the definition the running
    /// funnels must agree with.
    fn scan_oracle(log: &EventLog, artifact: &str) -> ArtifactMetrics {
        let mut m = ArtifactMetrics::default();
        let mut clickers: BTreeSet<&str> = BTreeSet::new();
        let mut executors: BTreeSet<&str> = BTreeSet::new();
        for e in log
            .events
            .iter()
            .filter(|e| log.artifacts.name(e.artifact) == artifact)
        {
            let user = log.users.name(e.user);
            match e.kind {
                EventKind::View => m.views += 1,
                EventKind::LaunchClick => {
                    m.launch_clicks += 1;
                    clickers.insert(user);
                }
                EventKind::CellExecution => {
                    m.cell_executions += 1;
                    executors.insert(user);
                }
            }
        }
        m.unique_launch_users = clickers.len();
        m.users_executed = executors.len();
        m
    }

    const KINDS: [EventKind; 3] = [
        EventKind::View,
        EventKind::LaunchClick,
        EventKind::CellExecution,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random logs over a few artifacts with repeated users roll up
        /// exactly as the full scan does, after every event and after a
        /// round trip through JSON.
        #[test]
        fn running_funnels_match_the_scan(
            events in prop::collection::vec((0usize..7, 0usize..4, 0usize..3), 0..120),
        ) {
            let artifacts = ["a0", "a1", "a2", "a3"];
            let mut log = EventLog::new();
            for (i, &(user, artifact, kind)) in events.iter().enumerate() {
                let name = artifacts[artifact];
                log.record(&format!("u{user}"), name, KINDS[kind], SimTime::from_secs(i as f64));
                prop_assert_eq!(log.metrics_for(name), scan_oracle(&log, name));
            }
            let json = serde_json::to_string(&log).unwrap();
            let back: EventLog = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back.len(), log.len());
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
            for name in artifacts.iter().chain(["never-seen"].iter()) {
                let expected = scan_oracle(&log, name);
                prop_assert_eq!(log.metrics_for(name), expected.clone());
                prop_assert_eq!(back.metrics_for(name), expected);
            }
        }
    }

    #[test]
    fn serialised_log_spells_names_out() {
        let mut log = EventLog::new();
        log.record("alice", "art", EventKind::View, SimTime::from_secs(1.5));
        assert_eq!(
            serde_json::to_string(&log).unwrap(),
            r#"{"events":[{"user":"alice","artifact":"art","kind":"View","at":1.5}]}"#
        );
    }

    #[test]
    fn paper_funnel_reproduced_exactly() {
        let log = EventLog::autolearn_observed("autolearn");
        let m = log.metrics_for("autolearn");
        // §5: "35 total number of launch button clicks, 9 users who clicked
        // the launch button, 2 users who executed at least one cell".
        assert_eq!(m.launch_clicks, 35);
        assert_eq!(m.unique_launch_users, 9);
        assert_eq!(m.users_executed, 2);
    }

    #[test]
    fn rollup_isolates_artifacts() {
        let mut log = EventLog::new();
        log.record("a", "art1", EventKind::LaunchClick, SimTime::ZERO);
        log.record("a", "art2", EventKind::LaunchClick, SimTime::ZERO);
        assert_eq!(log.metrics_for("art1").launch_clicks, 1);
        assert_eq!(log.metrics_for("art2").launch_clicks, 1);
        assert_eq!(log.metrics_for("art3").launch_clicks, 0);
    }

    #[test]
    fn unique_users_deduplicated() {
        let mut log = EventLog::new();
        for _ in 0..5 {
            log.record("same", "a", EventKind::LaunchClick, SimTime::ZERO);
        }
        let m = log.metrics_for("a");
        assert_eq!(m.launch_clicks, 5);
        assert_eq!(m.unique_launch_users, 1);
    }

    #[test]
    fn synthetic_funnel_narrows() {
        let log = EventLog::synthetic_funnel("a", 500, 0.3, 0.2, 1);
        let m = log.metrics_for("a");
        assert_eq!(m.views, 500);
        assert!(m.unique_launch_users < m.views);
        assert!(m.users_executed < m.unique_launch_users);
        assert!(m.users_executed > 0);
        // Click-through in the right ballpark.
        let ctr = m.unique_launch_users as f64 / 500.0;
        assert!((ctr - 0.3).abs() < 0.08, "ctr {ctr}");
    }

    #[test]
    fn funnel_deterministic_by_seed() {
        let a = EventLog::synthetic_funnel("a", 100, 0.4, 0.5, 7);
        let b = EventLog::synthetic_funnel("a", 100, 0.4, 0.5, 7);
        assert_eq!(a.metrics_for("a"), b.metrics_for("a"));
    }
}
