//! Federated identity, projects and allocations.
//!
//! §3.2: *"to gain access all educational users need to do is request a
//! project in computer science education ... users can log into the testbed
//! with their institutional credentials via federated identity login"*.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A testbed user.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct User {
    pub username: String,
    /// Home institution (the federated IdP).
    pub institution: String,
}

/// Service-unit allocation attached to a project.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    pub service_units: f64,
    pub used: f64,
}

impl Allocation {
    pub fn remaining(&self) -> f64 {
        (self.service_units - self.used).max(0.0)
    }
}

/// A project (e.g. "CS education: autonomous cars course").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Project {
    pub name: String,
    pub charge_code: String,
    pub members: Vec<String>,
    pub allocation: Allocation,
    /// Education projects get the streamlined approval path.
    pub education: bool,
}

/// Errors from the identity service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdentityError {
    UnknownUser(String),
    UnknownProject(String),
    NotAMember { user: String, project: String },
    AllocationExhausted(String),
}

impl std::fmt::Display for IdentityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdentityError::UnknownUser(u) => write!(f, "unknown user {u}"),
            IdentityError::UnknownProject(p) => write!(f, "unknown project {p}"),
            IdentityError::NotAMember { user, project } => {
                write!(f, "{user} is not a member of {project}")
            }
            IdentityError::AllocationExhausted(p) => {
                write!(f, "project {p} has no service units left")
            }
        }
    }
}

impl std::error::Error for IdentityError {}

/// The identity/accounting service.
#[derive(Debug, Default)]
pub struct IdentityService {
    users: BTreeMap<String, User>,
    projects: BTreeMap<String, Project>,
}

impl IdentityService {
    pub fn new() -> IdentityService {
        IdentityService::default()
    }

    /// Federated login: first login auto-registers the user (that is the
    /// point of federation — the IdP already vouched for them).
    pub fn federated_login(&mut self, username: &str, institution: &str) -> &User {
        self.users
            .entry(username.to_string())
            .or_insert_with(|| User {
                username: username.to_string(),
                institution: institution.to_string(),
            })
    }

    /// Create an education project with an initial allocation.
    pub fn create_education_project(
        &mut self,
        name: &str,
        pi: &str,
        service_units: f64,
    ) -> Result<&Project, IdentityError> {
        if !self.users.contains_key(pi) {
            return Err(IdentityError::UnknownUser(pi.to_string()));
        }
        let charge_code = format!("CHI-edu-{}", self.projects.len() + 1);
        let project = Project {
            name: name.to_string(),
            charge_code,
            members: vec![pi.to_string()],
            allocation: Allocation {
                service_units,
                used: 0.0,
            },
            education: true,
        };
        Ok(self.projects.entry(name.to_string()).or_insert(project))
    }

    pub fn add_member(&mut self, project: &str, user: &str) -> Result<(), IdentityError> {
        if !self.users.contains_key(user) {
            return Err(IdentityError::UnknownUser(user.to_string()));
        }
        let p = self
            .projects
            .get_mut(project)
            .ok_or_else(|| IdentityError::UnknownProject(project.to_string()))?;
        if !p.members.iter().any(|m| m == user) {
            p.members.push(user.to_string());
        }
        Ok(())
    }

    /// Authorise `user` to use `project` resources and charge `su` units.
    pub fn authorize_and_charge(
        &mut self,
        user: &str,
        project: &str,
        su: f64,
    ) -> Result<(), IdentityError> {
        let p = self
            .projects
            .get_mut(project)
            .ok_or_else(|| IdentityError::UnknownProject(project.to_string()))?;
        if !p.members.iter().any(|m| m == user) {
            return Err(IdentityError::NotAMember {
                user: user.to_string(),
                project: project.to_string(),
            });
        }
        if p.allocation.remaining() < su {
            return Err(IdentityError::AllocationExhausted(project.to_string()));
        }
        p.allocation.used += su;
        Ok(())
    }

    pub fn project(&self, name: &str) -> Option<&Project> {
        self.projects.get(name)
    }

    pub fn user(&self, name: &str) -> Option<&User> {
        self.users.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_with_class() -> IdentityService {
        let mut svc = IdentityService::new();
        svc.federated_login("prof", "missouri.edu");
        svc.federated_login("student1", "yosemite.edu");
        svc.create_education_project("autolearn-class", "prof", 1000.0)
            .unwrap();
        svc
    }

    #[test]
    fn federated_login_registers_once() {
        let mut svc = IdentityService::new();
        svc.federated_login("kate", "anl.gov");
        svc.federated_login("kate", "anl.gov");
        assert_eq!(svc.user("kate").unwrap().institution, "anl.gov");
    }

    #[test]
    fn project_creation_requires_known_pi() {
        let mut svc = IdentityService::new();
        assert!(matches!(
            svc.create_education_project("x", "ghost", 10.0),
            Err(IdentityError::UnknownUser(_))
        ));
    }

    #[test]
    fn members_can_charge_nonmembers_cannot() {
        let mut svc = service_with_class();
        assert!(matches!(
            svc.authorize_and_charge("student1", "autolearn-class", 10.0),
            Err(IdentityError::NotAMember { .. })
        ));
        svc.add_member("autolearn-class", "student1").unwrap();
        assert!(svc
            .authorize_and_charge("student1", "autolearn-class", 10.0)
            .is_ok());
        assert_eq!(
            svc.project("autolearn-class").unwrap().allocation.used,
            10.0
        );
    }

    #[test]
    fn allocation_exhaustion_blocks() {
        let mut svc = service_with_class();
        assert!(svc
            .authorize_and_charge("prof", "autolearn-class", 990.0)
            .is_ok());
        assert!(matches!(
            svc.authorize_and_charge("prof", "autolearn-class", 20.0),
            Err(IdentityError::AllocationExhausted(_))
        ));
        assert!(
            (svc.project("autolearn-class")
                .unwrap()
                .allocation
                .remaining()
                - 10.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn education_projects_flagged() {
        let svc = service_with_class();
        assert!(svc.project("autolearn-class").unwrap().education);
        assert!(svc
            .project("autolearn-class")
            .unwrap()
            .charge_code
            .starts_with("CHI-edu-"));
    }
}
