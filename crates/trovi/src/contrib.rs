//! The contribution / community flow.
//!
//! §4: learners "can start their own educational module ... synced ...
//! make additional changes ... make a merge request to the original
//! repository so then the learning community can have access to different
//! versions and updates of the project". This module models that
//! fork → edit → merge-request → accept loop on top of [`crate::Artifact`].

use crate::artifact::{Artifact, Notebook};
use autolearn_util::SimTime;
use serde::{Deserialize, Serialize};

/// A learner's fork of an artifact version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fork {
    pub id: u64,
    pub owner: String,
    pub base_artifact: String,
    pub base_version: u32,
    /// The forked (editable) notebooks.
    pub notebooks: Vec<Notebook>,
}

/// Merge-request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeStatus {
    Open,
    Accepted,
    Rejected,
}

/// A proposed contribution back to the original artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MergeRequest {
    pub id: u64,
    pub fork_id: u64,
    pub summary: String,
    pub status: MergeStatus,
}

/// The hub-side contribution machinery.
#[derive(Debug, Default)]
pub struct ContributionHub {
    forks: Vec<Fork>,
    merge_requests: Vec<MergeRequest>,
    next_id: u64,
}

impl ContributionHub {
    pub fn new() -> ContributionHub {
        ContributionHub::default()
    }

    /// Fork the latest version of `artifact` for `owner`.
    pub fn fork(&mut self, artifact: &Artifact, owner: &str) -> Option<u64> {
        let latest = artifact.latest()?;
        self.next_id += 1;
        self.forks.push(Fork {
            id: self.next_id,
            owner: owner.to_string(),
            base_artifact: artifact.slug.clone(),
            base_version: latest.number,
            notebooks: latest.notebooks.clone(),
        });
        Some(self.next_id)
    }

    pub fn fork_mut(&mut self, id: u64) -> Option<&mut Fork> {
        self.forks.iter_mut().find(|f| f.id == id)
    }

    /// Open a merge request from a fork.
    pub fn open_merge_request(&mut self, fork_id: u64, summary: &str) -> Option<u64> {
        self.forks.iter().find(|f| f.id == fork_id)?;
        self.next_id += 1;
        self.merge_requests.push(MergeRequest {
            id: self.next_id,
            fork_id,
            summary: summary.to_string(),
            status: MergeStatus::Open,
        });
        Some(self.next_id)
    }

    /// Maintainer accepts: the fork's notebooks become a new published
    /// version of the artifact.
    pub fn accept(&mut self, mr_id: u64, artifact: &mut Artifact, at: SimTime) -> Option<u32> {
        let mr = self
            .merge_requests
            .iter_mut()
            .find(|m| m.id == mr_id && m.status == MergeStatus::Open)?;
        let fork = self.forks.iter().find(|f| f.id == mr.fork_id)?;
        if fork.base_artifact != artifact.slug {
            return None;
        }
        mr.status = MergeStatus::Accepted;
        Some(artifact.publish_version(at, fork.notebooks.clone(), &mr.summary))
    }

    pub fn reject(&mut self, mr_id: u64) {
        if let Some(mr) = self
            .merge_requests
            .iter_mut()
            .find(|m| m.id == mr_id && m.status == MergeStatus::Open)
        {
            mr.status = MergeStatus::Rejected;
        }
    }

    pub fn open_requests(&self) -> Vec<&MergeRequest> {
        self.merge_requests
            .iter()
            .filter(|m| m.status == MergeStatus::Open)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Cell;

    fn artifact() -> Artifact {
        let mut a = Artifact::new("mod", "Module", &["prof"]);
        a.publish_version(
            SimTime::ZERO,
            vec![Notebook::new("nb", vec![Cell::code("x = 1")])],
            "v1",
        );
        a
    }

    #[test]
    fn fork_edit_merge_cycle() {
        let mut a = artifact();
        let mut hub = ContributionHub::new();
        let fork_id = hub.fork(&a, "student").unwrap();

        // Student edits their fork.
        hub.fork_mut(fork_id).unwrap().notebooks[0]
            .cells
            .push(Cell::code("extension: rl training"));

        let mr = hub.open_merge_request(fork_id, "add RL extension").unwrap();
        assert_eq!(hub.open_requests().len(), 1);

        let v = hub.accept(mr, &mut a, SimTime::from_secs(100.0)).unwrap();
        assert_eq!(v, 2);
        assert_eq!(a.version_count(), 2);
        assert_eq!(a.latest().unwrap().notebooks[0].cells.len(), 2);
        assert!(hub.open_requests().is_empty());
    }

    #[test]
    fn accept_twice_is_noop() {
        let mut a = artifact();
        let mut hub = ContributionHub::new();
        let f = hub.fork(&a, "s").unwrap();
        let mr = hub.open_merge_request(f, "x").unwrap();
        assert!(hub.accept(mr, &mut a, SimTime::ZERO).is_some());
        assert!(hub.accept(mr, &mut a, SimTime::ZERO).is_none());
        assert_eq!(a.version_count(), 2);
    }

    #[test]
    fn reject_closes_request() {
        let mut a = artifact();
        let mut hub = ContributionHub::new();
        let f = hub.fork(&a, "s").unwrap();
        let mr = hub.open_merge_request(f, "bad idea").unwrap();
        hub.reject(mr);
        assert!(hub.open_requests().is_empty());
        assert!(hub.accept(mr, &mut a, SimTime::ZERO).is_none());
    }

    #[test]
    fn fork_tracks_base_version() {
        let mut a = artifact();
        a.publish_version(SimTime::ZERO, vec![], "v2");
        let mut hub = ContributionHub::new();
        let f = hub.fork(&a, "s").unwrap();
        assert_eq!(hub.fork_mut(f).unwrap().base_version, 2);
    }

    #[test]
    fn cannot_merge_into_wrong_artifact() {
        let mut a = artifact();
        let mut other = Artifact::new("other", "Other", &["x"]);
        other.publish_version(SimTime::ZERO, vec![], "v1");
        let mut hub = ContributionHub::new();
        let f = hub.fork(&a, "s").unwrap();
        let mr = hub.open_merge_request(f, "x").unwrap();
        assert!(hub.accept(mr, &mut other, SimTime::ZERO).is_none());
        assert!(hub.accept(mr, &mut a, SimTime::ZERO).is_some());
    }
}
