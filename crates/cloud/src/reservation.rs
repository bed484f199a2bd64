//! Advance reservations.
//!
//! §3.2: *"All hardware is available either on-demand or via advance
//! reservations so that users can reserve required resources ahead of time,
//! for example, to manage resource scarcity or to guarantee resource
//! availability at a specific time slot for a class or a demonstration."*
//!
//! The reservation system keeps a per-node-type calendar of leases and
//! admits a new lease iff, at every instant of its window, the sum of
//! overlapping lease counts stays within the site's capacity.

use crate::hardware::Site;
use autolearn_util::typed_id;
use autolearn_util::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

typed_id!(LeaseId, "lease");

/// Lease lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseState {
    Pending,
    Active,
    Ended,
}

/// A reserved block of nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lease {
    pub id: LeaseId,
    pub project: String,
    pub node_type: String,
    pub nodes: u32,
    pub start: SimTime,
    pub end: SimTime,
    pub state: LeaseState,
}

impl Lease {
    fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.state != LeaseState::Ended && self.start.0 < end.0 && start.0 < self.end.0
    }
}

/// Why a reservation was refused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReservationError {
    UnknownNodeType(String),
    /// Not enough capacity in the window; carries the worst-case number of
    /// free nodes over the window.
    InsufficientCapacity { free: u32, requested: u32 },
    InvalidWindow,
}

impl std::fmt::Display for ReservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReservationError::UnknownNodeType(n) => write!(f, "unknown node type {n}"),
            ReservationError::InsufficientCapacity { free, requested } => {
                write!(f, "requested {requested} nodes, only {free} free")
            }
            ReservationError::InvalidWindow => write!(f, "lease end must be after start"),
        }
    }
}

impl std::error::Error for ReservationError {}

/// The per-site reservation calendar.
///
/// Every lease ever admitted stays in `leases`, in admission order, so
/// lease ids are dense and [`ReservationSystem::lease`] is an index.
/// Ended leases never hold capacity again, so admission and
/// [`ReservationSystem::advance_time`] walk only `live`: the cost of an
/// operation depends on the leases still on the calendar, not on how many
/// the site has ever served.
pub struct ReservationSystem {
    site: Site,
    /// `leases[i].id == LeaseId(i + 1)`.
    leases: Vec<Lease>,
    /// Positions in `leases` of the leases not yet `Ended`, ascending.
    live: Vec<usize>,
}

impl ReservationSystem {
    pub fn new(site: Site) -> ReservationSystem {
        ReservationSystem {
            site,
            leases: Vec::new(),
            live: Vec::new(),
        }
    }

    pub fn site(&self) -> &Site {
        &self.site
    }

    /// Every lease ever admitted, in admission order.
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    pub fn lease(&self, id: LeaseId) -> Option<&Lease> {
        self.position(id).map(|i| &self.leases[i])
    }

    fn position(&self, id: LeaseId) -> Option<usize> {
        let i = usize::try_from(id.0.checked_sub(1)?).ok()?;
        (i < self.leases.len()).then_some(i)
    }

    /// Worst-case free nodes of `node_type` over `[start, end)`.
    pub fn min_free(&self, node_type: &str, start: SimTime, end: SimTime) -> u32 {
        let capacity = self.site.capacity_of(node_type);
        // Usage only rises where a lease starts, so the worst case is at the
        // window start or at a lease start inside the window. Sweep the
        // boundaries inside the window in time order, ends before starts at
        // the same instant (a lease holds `[start, end)`).
        let mut used: i64 = 0;
        let mut boundaries: Vec<(f64, i64)> = Vec::new();
        for &i in &self.live {
            let l = &self.leases[i];
            if l.node_type != node_type || !l.overlaps(start, end) {
                continue;
            }
            let nodes = i64::from(l.nodes);
            if l.start.0 <= start.0 {
                used += nodes;
            } else {
                boundaries.push((l.start.0, nodes));
            }
            if l.end.0 < end.0 {
                boundaries.push((l.end.0, -nodes));
            }
        }
        boundaries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut peak = used;
        for (_, delta) in boundaries {
            used += delta;
            peak = peak.max(used);
        }
        let peak = u32::try_from(peak).unwrap_or(u32::MAX);
        capacity.saturating_sub(peak)
    }

    /// Request an advance reservation.
    pub fn reserve(
        &mut self,
        project: &str,
        node_type: &str,
        nodes: u32,
        start: SimTime,
        end: SimTime,
    ) -> Result<LeaseId, ReservationError> {
        let state = if start.0 <= 0.0 {
            LeaseState::Active
        } else {
            LeaseState::Pending
        };
        self.admit(project, node_type, nodes, start, end, state)
    }

    /// On-demand request: starts `now`, runs for `duration`. The lease is
    /// `Active` from admission.
    pub fn on_demand(
        &mut self,
        project: &str,
        node_type: &str,
        nodes: u32,
        now: SimTime,
        duration: SimDuration,
    ) -> Result<LeaseId, ReservationError> {
        let end = now + duration;
        self.admit(project, node_type, nodes, now, end, LeaseState::Active)
    }

    fn admit(
        &mut self,
        project: &str,
        node_type: &str,
        nodes: u32,
        start: SimTime,
        end: SimTime,
        state: LeaseState,
    ) -> Result<LeaseId, ReservationError> {
        if end.0 <= start.0 {
            return Err(ReservationError::InvalidWindow);
        }
        if self.site.node_type(node_type).is_none() {
            return Err(ReservationError::UnknownNodeType(node_type.to_string()));
        }
        let free = self.min_free(node_type, start, end);
        if free < nodes {
            return Err(ReservationError::InsufficientCapacity {
                free,
                requested: nodes,
            });
        }
        let id = LeaseId(self.leases.len() as u64 + 1);
        self.live.push(self.leases.len());
        self.leases.push(Lease {
            id,
            project: project.to_string(),
            node_type: node_type.to_string(),
            nodes,
            start,
            end,
            state,
        });
        Ok(id)
    }

    /// Progress lease states to `now` (Pending→Active→Ended).
    pub fn advance_time(&mut self, now: SimTime) {
        let leases = &mut self.leases;
        self.live.retain(|&i| {
            let l = &mut leases[i];
            if now.0 >= l.end.0 {
                l.state = LeaseState::Ended;
            } else if now.0 >= l.start.0 {
                l.state = LeaseState::Active;
            }
            l.state != LeaseState::Ended
        });
    }

    /// End a lease early (frees capacity from `now`).
    pub fn terminate(&mut self, id: LeaseId, now: SimTime) {
        if let Some(i) = self.position(id) {
            let l = &mut self.leases[i];
            l.end = now.min(l.end);
            l.state = LeaseState::Ended;
            self.live.retain(|&j| j != i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::{GpuKind, NodeType};

    fn tiny_site() -> Site {
        Site {
            name: "test".to_string(),
            inventory: vec![(NodeType::gpu_node(GpuKind::V100, 4), 2)],
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn reserve_within_capacity() {
        let mut rs = ReservationSystem::new(tiny_site());
        let id = rs.reserve("proj", "gpu_v100", 2, t(0.0), t(100.0)).unwrap();
        assert!(rs.lease(id).is_some());
        assert_eq!(rs.min_free("gpu_v100", t(0.0), t(100.0)), 0);
    }

    #[test]
    fn over_capacity_rejected() {
        let mut rs = ReservationSystem::new(tiny_site());
        rs.reserve("a", "gpu_v100", 1, t(0.0), t(100.0)).unwrap();
        let err = rs
            .reserve("b", "gpu_v100", 2, t(50.0), t(150.0))
            .unwrap_err();
        assert_eq!(
            err,
            ReservationError::InsufficientCapacity {
                free: 1,
                requested: 2
            }
        );
    }

    #[test]
    fn non_overlapping_windows_share_nodes() {
        let mut rs = ReservationSystem::new(tiny_site());
        rs.reserve("a", "gpu_v100", 2, t(0.0), t(100.0)).unwrap();
        // Back-to-back is fine: [100, 200).
        assert!(rs.reserve("b", "gpu_v100", 2, t(100.0), t(200.0)).is_ok());
    }

    #[test]
    fn partial_overlap_counts_peak_usage() {
        let mut rs = ReservationSystem::new(tiny_site());
        rs.reserve("a", "gpu_v100", 1, t(0.0), t(100.0)).unwrap();
        rs.reserve("b", "gpu_v100", 1, t(50.0), t(150.0)).unwrap();
        // In [60, 90) both leases hold a node: zero free.
        assert_eq!(rs.min_free("gpu_v100", t(60.0), t(90.0)), 0);
        // In [120, 140) only lease b: one free.
        assert_eq!(rs.min_free("gpu_v100", t(120.0), t(140.0)), 1);
        // A third overlapping full-window lease is rejected.
        assert!(rs.reserve("c", "gpu_v100", 1, t(40.0), t(160.0)).is_err());
    }

    #[test]
    fn advance_reservation_guarantees_class_slot() {
        // The paper's classroom scenario: reserve ahead, then on-demand
        // walk-ins cannot take the slot.
        let mut rs = ReservationSystem::new(tiny_site());
        let class = rs.reserve("class", "gpu_v100", 2, t(1000.0), t(2000.0));
        assert!(class.is_ok());
        // Walk-in wants a long job spanning the class window → refused.
        assert!(rs.on_demand("walkin", "gpu_v100", 1, t(900.0), SimDuration::from_secs(300.0)).is_err());
        // Short job ending before the class starts → fine.
        assert!(rs.on_demand("walkin", "gpu_v100", 1, t(900.0), SimDuration::from_secs(50.0)).is_ok());
    }

    #[test]
    fn unknown_type_and_bad_window() {
        let mut rs = ReservationSystem::new(tiny_site());
        assert!(matches!(
            rs.reserve("p", "gpu_h100", 1, t(0.0), t(10.0)),
            Err(ReservationError::UnknownNodeType(_))
        ));
        assert!(matches!(
            rs.reserve("p", "gpu_v100", 1, t(10.0), t(10.0)),
            Err(ReservationError::InvalidWindow)
        ));
    }

    #[test]
    fn inverted_window_rejected() {
        let mut rs = ReservationSystem::new(tiny_site());
        assert_eq!(
            rs.reserve("p", "gpu_v100", 1, t(100.0), t(50.0)),
            Err(ReservationError::InvalidWindow)
        );
        // Nothing was recorded for the bad request.
        assert!(rs.leases().is_empty());
    }

    #[test]
    fn insufficient_capacity_reports_worst_case_free() {
        // Capacity 2; A holds one node over the whole window, B another in
        // the middle. The worst case anywhere in [0, 100) is zero free — the
        // error must report that, not the 1 free at the window edges.
        let mut rs = ReservationSystem::new(tiny_site());
        rs.reserve("a", "gpu_v100", 1, t(0.0), t(100.0)).unwrap();
        rs.reserve("b", "gpu_v100", 1, t(40.0), t(60.0)).unwrap();
        let err = rs.reserve("c", "gpu_v100", 2, t(0.0), t(100.0)).unwrap_err();
        assert_eq!(
            err,
            ReservationError::InsufficientCapacity {
                free: 0,
                requested: 2
            }
        );
    }

    #[test]
    fn back_to_back_leases_do_not_stack_in_min_free() {
        // A ends exactly where B starts; at t=100 only B holds a node, so the
        // worst case over the combined span is capacity - 1, not capacity - 2.
        let mut rs = ReservationSystem::new(tiny_site());
        rs.reserve("a", "gpu_v100", 1, t(0.0), t(100.0)).unwrap();
        rs.reserve("b", "gpu_v100", 1, t(100.0), t(200.0)).unwrap();
        assert_eq!(rs.min_free("gpu_v100", t(0.0), t(200.0)), 1);
    }

    #[test]
    fn lifecycle_transitions() {
        let mut rs = ReservationSystem::new(tiny_site());
        let id = rs.reserve("p", "gpu_v100", 1, t(10.0), t(20.0)).unwrap();
        assert_eq!(rs.lease(id).unwrap().state, LeaseState::Pending);
        rs.advance_time(t(15.0));
        assert_eq!(rs.lease(id).unwrap().state, LeaseState::Active);
        rs.advance_time(t(25.0));
        assert_eq!(rs.lease(id).unwrap().state, LeaseState::Ended);
    }

    #[test]
    fn on_demand_lease_is_active_from_admission() {
        let mut rs = ReservationSystem::new(tiny_site());
        let id = rs
            .on_demand("p", "gpu_v100", 1, t(100.0), SimDuration::from_secs(50.0))
            .unwrap();
        assert_eq!(rs.lease(id).unwrap().state, LeaseState::Active);
    }

    #[test]
    fn lease_ids_index_in_admission_order() {
        let mut rs = ReservationSystem::new(tiny_site());
        let a = rs.reserve("a", "gpu_v100", 1, t(0.0), t(10.0)).unwrap();
        assert!(rs.reserve("x", "gpu_v100", 9, t(0.0), t(10.0)).is_err());
        let b = rs.reserve("b", "gpu_v100", 1, t(5.0), t(10.0)).unwrap();
        assert_eq!((a, b), (LeaseId(1), LeaseId(2)));
        assert_eq!(rs.lease(b).unwrap().project, "b");
        assert!(rs.lease(LeaseId(0)).is_none());
        assert!(rs.lease(LeaseId(3)).is_none());
        rs.terminate(LeaseId(3), t(1.0));
        assert_eq!(rs.leases().len(), 2);
    }

    #[test]
    fn early_termination_frees_capacity() {
        let mut rs = ReservationSystem::new(tiny_site());
        let id = rs.reserve("p", "gpu_v100", 2, t(0.0), t(1000.0)).unwrap();
        assert!(rs.reserve("q", "gpu_v100", 1, t(10.0), t(20.0)).is_err());
        rs.terminate(id, t(5.0));
        assert!(rs.reserve("q", "gpu_v100", 1, t(10.0), t(20.0)).is_ok());
    }
}
