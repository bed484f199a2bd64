//! Cross-crate integration: the edge-to-cloud continuum — identity,
//! reservations, provisioning, BYOD, containers, artifact hub.

use autolearn_cloud::hardware::Site;
use autolearn_cloud::identity::IdentityService;
use autolearn_cloud::provision::{ProvisionState, Provisioner, ProvisioningPlan};
use autolearn_cloud::reservation::ReservationSystem;
use autolearn_edge::{
    ByodWorkflow, ContainerRuntime, DeviceKind, DeviceState, EdgeDevice, ImageSpec,
};
use autolearn_net::{transfer_time, Path, TransferSpec};
use autolearn_trovi::{Artifact, ArtifactMetrics, ContributionHub, EventKind, EventLog, TroviHub};
use autolearn_util::{Bytes, SimClock, SimDuration, SimTime};
use std::collections::VecDeque;

#[test]
fn classroom_provisioning_day() {
    // Identity: professor creates the class project, students join.
    let mut identity = IdentityService::new();
    identity.federated_login("prof", "missouri.edu");
    identity
        .create_education_project("cs4001", "prof", 2000.0)
        .unwrap();
    identity.federated_login("alice", "missouri.edu");
    identity.add_member("cs4001", "alice").unwrap();

    // Advance reservation guarantees the class slot against walk-ins.
    let mut rs = ReservationSystem::new(Site::chameleon());
    let start = SimTime::from_secs(86_400.0);
    let end = SimTime::from_secs(86_400.0 + 7200.0);
    rs.reserve("cs4001", "gpu_v100", 4, start, end).unwrap();
    // A walk-in wanting all V100 nodes across the slot is refused.
    assert!(rs.reserve("walkin", "gpu_v100", 1, start, end).is_err());

    // Provisioning against a discrete-event clock.
    let upload = transfer_time(
        &Path::car_to_cloud(),
        &TransferSpec::rsync(Bytes::new(20_000_000)),
    );
    let plan = ProvisioningPlan::cuda_image(upload);
    let provisioner = Provisioner::start(plan, start);
    assert_eq!(provisioner.state_at(start), ProvisionState::Queued);

    let mut clock: SimClock<&str> = SimClock::new();
    clock.advance_to(start);
    clock.schedule_at(provisioner.ready_at(), "node-ready");
    let (t, event) = clock.step().unwrap();
    assert_eq!(event, "node-ready");
    assert_eq!(provisioner.state_at(t), ProvisionState::Ready);
    // Ready within the 2-hour class slot.
    assert!(t.as_secs() < end.as_secs());

    // Charge the project for the node-hours used.
    identity
        .authorize_and_charge("alice", "cs4001", 8.0)
        .unwrap();
    assert!(identity.project("cs4001").unwrap().allocation.used > 0.0);
}

#[test]
fn byod_car_to_running_container() {
    let mut car = EdgeDevice::new("car-12", DeviceKind::RaspberryPi4, "alice");
    let zero_to_ready = ByodWorkflow::onboard(&mut car, "cs4001").unwrap();
    assert_eq!(car.state, DeviceState::InUse);
    assert!(zero_to_ready.total.as_mins() < 30.0);

    // Launch the AutoLearn container on the car and use its console.
    let mut rt = ContainerRuntime::new();
    let (mut container, launch) = rt.launch(&ImageSpec::autolearn(), &Path::car_to_cloud());
    assert!(launch.as_mins() < 15.0);
    let out = container
        .console_exec("python manage.py drive --js")
        .unwrap();
    assert!(out.contains("manage.py"));

    // The paper's documented limitation: no console text editing.
    assert!(container.console_exec("nano myconfig.py").is_err());

    // Device released after the session.
    car.release();
    assert_eq!(car.state, DeviceState::Connected);
}

#[test]
fn artifact_lifecycle_with_community_contribution() {
    // The AutoLearn artifact as published.
    let mut artifact = Artifact::autolearn_example();
    assert_eq!(artifact.version_count(), 8);

    // Students interact; Trovi counts automatically.
    let mut log = EventLog::new();
    for (user, executes) in [("alice", true), ("bob", false)] {
        log.record(user, &artifact.slug, EventKind::View, SimTime::ZERO);
        log.record(user, &artifact.slug, EventKind::LaunchClick, SimTime::ZERO);
        if executes {
            log.record(
                user,
                &artifact.slug,
                EventKind::CellExecution,
                SimTime::ZERO,
            );
        }
    }
    let m = log.metrics_for(&artifact.slug);
    assert_eq!(m.unique_launch_users, 2);
    assert_eq!(m.users_executed, 1);

    // A student forks, extends, and merges back (§4's community loop).
    let mut hub = ContributionHub::new();
    let fork = hub.fork(&artifact, "alice").unwrap();
    hub.fork_mut(fork).unwrap().notebooks[0]
        .cells
        .push(autolearn_trovi::Cell::code("# new RL extension"));
    let mr = hub.open_merge_request(fork, "RL lesson").unwrap();
    let v = hub
        .accept(mr, &mut artifact, SimTime::from_secs(1.0))
        .unwrap();
    assert_eq!(v, 9);
    assert_eq!(artifact.version_count(), 9);
}

#[test]
fn byod_car_reservable_like_any_chameleon_resource() {
    // §3.3: after BYOD registration "students can thus treat the cars as
    // any other Chameleon resource" — one calendar for cars and GPUs.
    let mut site = Site::chameleon();
    let car_type = site.register_byod_device("car-01");
    let mut rs = ReservationSystem::new(site);

    let slot_a = rs
        .reserve(
            "team-a",
            &car_type,
            1,
            SimTime::from_secs(0.0),
            SimTime::from_secs(3600.0),
        )
        .unwrap();
    // The single car is busy: a second overlapping team is refused...
    assert!(rs
        .reserve(
            "team-b",
            &car_type,
            1,
            SimTime::from_secs(1800.0),
            SimTime::from_secs(5400.0)
        )
        .is_err());
    // ...but the next slot works, as does a GPU node at the same time.
    assert!(rs
        .reserve(
            "team-b",
            &car_type,
            1,
            SimTime::from_secs(3600.0),
            SimTime::from_secs(7200.0)
        )
        .is_ok());
    assert!(rs
        .reserve(
            "team-a",
            "gpu_v100",
            1,
            SimTime::from_secs(0.0),
            SimTime::from_secs(3600.0)
        )
        .is_ok());
    assert!(rs.lease(slot_a).is_some());
}

#[test]
fn inference_rpc_fits_the_control_budget_only_nearby() {
    // A 1.2 kB frame to the datacenter and back fits a 50 ms tick easily
    // on the campus path, but not over a 100 ms-latency WAN.
    use autolearn_net::{rpc_round_trip, Link};
    let campus = Path::car_to_cloud();
    let t = rpc_round_trip(&campus, Bytes::new(1200), Bytes::new(16));
    assert!(t.as_millis() < 50.0, "campus RPC {t}");

    let wan = Path::new(vec![Link::fabric_with_latency(0.1)]);
    let t = rpc_round_trip(&wan, Bytes::new(1200), Bytes::new(16));
    assert!(t.as_millis() > 50.0, "WAN RPC {t}");
}

#[test]
fn ten_thousand_sessions_on_one_hub_and_calendar() {
    // A term's worth of students on one hub and one reservation calendar:
    // each views and launches the artifact, runs its five code cells, and
    // asks for an on-demand 4 h GPU lease, arriving every ~360 s (40 nodes
    // / 4 h). Every rollup and admission must be exact, and the per-session
    // cost must not grow with the sessions already served: scanning the
    // whole history each time makes this test quadratic.
    const SESSIONS: usize = 10_000;
    const NODE: &str = "gpu_rtx6000";
    let slug = Artifact::autolearn_example().slug;
    let mut hub = TroviHub::new();
    hub.publish(Artifact::autolearn_example());
    let mut rs = ReservationSystem::new(Site::chameleon());
    let capacity = rs.site().capacity_of(NODE);
    let lease = SimDuration::from_hours(4.0);
    // End times of the leases still running, in admission order (every
    // lease has the same length, so they also end in this order).
    let mut running: VecDeque<SimTime> = VecDeque::new();
    let (mut leased, mut refused) = (0usize, 0usize);
    let mut now = SimTime::ZERO;
    for i in 0..SESSIONS {
        let user = format!("student-{i:05}");
        hub.view(&user, &slug, now);
        assert!(hub.launch(&user, &slug, now));
        let mut executed = 0;
        for (nb, cells) in [3, 3, 2].into_iter().enumerate() {
            for cell in 0..cells {
                executed += usize::from(hub.execute_cell(&user, &slug, nb, cell, now));
            }
        }
        assert_eq!(executed, 5);

        rs.advance_time(now);
        while running.front().is_some_and(|end| end.0 <= now.0) {
            running.pop_front();
        }
        let free = capacity - running.len() as u32;
        assert_eq!(rs.min_free(NODE, now, now + lease), free);
        match rs.on_demand(&user, NODE, 1, now, lease) {
            Ok(_) => {
                assert!(free >= 1, "session {i} admitted with no node free");
                running.push_back(now + lease);
                leased += 1;
            }
            Err(_) => {
                assert_eq!(free, 0, "session {i} refused with {free} nodes free");
                refused += 1;
            }
        }
        assert!(running.len() <= capacity as usize);

        let n = i + 1;
        assert_eq!(
            hub.events.metrics_for(&slug),
            ArtifactMetrics {
                views: n,
                launch_clicks: n,
                unique_launch_users: n,
                users_executed: n,
                cell_executions: 5 * n,
            },
            "rollup after session {i}"
        );
        now += SimDuration::from_secs(180.0 + ((i * 37) % 361) as f64);
    }
    assert_eq!(hub.events.len(), SESSIONS * 7);
    assert_eq!(leased + refused, SESSIONS);
    assert!(
        leased > SESSIONS / 2 && refused > 0,
        "{leased} leased, {refused} refused"
    );
}
