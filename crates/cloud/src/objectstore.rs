//! The object store.
//!
//! §3.5: *"The collected datasets and the pre-trained models are stored in
//! Chameleon's object store and can be combined with other components of
//! the system in a 'mix and match' pathway."* Chameleon's store is
//! OpenStack Swift; this models the slice the module uses: containers,
//! objects with etags and metadata, put/get/list/delete.

use std::collections::BTreeMap;

/// A stored object.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject {
    pub data: Vec<u8>,
    pub etag: u64,
    pub metadata: BTreeMap<String, String>,
}

/// Errors from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    NoSuchContainer(String),
    NoSuchObject(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoSuchContainer(c) => write!(f, "no such container {c}"),
            StoreError::NoSuchObject(o) => write!(f, "no such object {o}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A Swift-like object store.
#[derive(Debug, Default)]
pub struct ObjectStore {
    containers: BTreeMap<String, BTreeMap<String, StoredObject>>,
}

fn etag_of(data: &[u8]) -> u64 {
    // FNV-1a; fidelity target is "changes when the bytes change".
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl ObjectStore {
    pub fn new() -> ObjectStore {
        ObjectStore::default()
    }

    pub fn create_container(&mut self, name: &str) {
        self.containers.entry(name.to_string()).or_default();
    }

    pub fn container_names(&self) -> Vec<&str> {
        self.containers.keys().map(String::as_str).collect()
    }

    /// Upload (container auto-created, object overwritten). Returns the etag.
    pub fn put(
        &mut self,
        container: &str,
        name: &str,
        data: Vec<u8>,
        metadata: BTreeMap<String, String>,
    ) -> u64 {
        let etag = etag_of(&data);
        self.containers
            .entry(container.to_string())
            .or_default()
            .insert(
                name.to_string(),
                StoredObject {
                    data,
                    etag,
                    metadata,
                },
            );
        etag
    }

    pub fn get(&self, container: &str, name: &str) -> Result<&StoredObject, StoreError> {
        self.containers
            .get(container)
            .ok_or_else(|| StoreError::NoSuchContainer(container.to_string()))?
            .get(name)
            .ok_or_else(|| StoreError::NoSuchObject(name.to_string()))
    }

    /// Objects in a container whose names start with `prefix`.
    pub fn list(&self, container: &str, prefix: &str) -> Result<Vec<&str>, StoreError> {
        Ok(self
            .containers
            .get(container)
            .ok_or_else(|| StoreError::NoSuchContainer(container.to_string()))?
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(String::as_str)
            .collect())
    }

    pub fn delete(&mut self, container: &str, name: &str) -> Result<(), StoreError> {
        self.containers
            .get_mut(container)
            .ok_or_else(|| StoreError::NoSuchContainer(container.to_string()))?
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::NoSuchObject(name.to_string()))
    }

    /// Total bytes stored (for quota accounting).
    pub fn total_bytes(&self) -> u64 {
        self.containers
            .values()
            .flat_map(|c| c.values())
            .map(|o| o.data.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut store = ObjectStore::new();
        let mut meta = BTreeMap::new();
        meta.insert("track".to_string(), "paper-oval".to_string());
        let etag = store.put("datasets", "oval-20k.tub", vec![1, 2, 3], meta);
        let obj = store.get("datasets", "oval-20k.tub").unwrap();
        assert_eq!(obj.data, vec![1, 2, 3]);
        assert_eq!(obj.etag, etag);
        assert_eq!(obj.metadata["track"], "paper-oval");
    }

    #[test]
    fn etag_changes_with_content() {
        let mut store = ObjectStore::new();
        let e1 = store.put("c", "o", vec![1], BTreeMap::new());
        let e2 = store.put("c", "o", vec![2], BTreeMap::new());
        assert_ne!(e1, e2);
    }

    #[test]
    fn list_with_prefix() {
        let mut store = ObjectStore::new();
        store.put("models", "linear-v1.json", vec![], BTreeMap::new());
        store.put("models", "linear-v2.json", vec![], BTreeMap::new());
        store.put("models", "rnn-v1.json", vec![], BTreeMap::new());
        let linear = store.list("models", "linear-").unwrap();
        assert_eq!(linear.len(), 2);
        assert_eq!(store.list("models", "").unwrap().len(), 3);
    }

    #[test]
    fn missing_container_and_object_error() {
        let mut store = ObjectStore::new();
        assert!(matches!(
            store.get("none", "x"),
            Err(StoreError::NoSuchContainer(_))
        ));
        store.create_container("empty");
        assert!(matches!(
            store.get("empty", "x"),
            Err(StoreError::NoSuchObject(_))
        ));
        assert!(store.delete("empty", "x").is_err());
    }

    #[test]
    fn delete_removes_and_accounting_updates() {
        let mut store = ObjectStore::new();
        store.put("c", "a", vec![0; 100], BTreeMap::new());
        store.put("c", "b", vec![0; 50], BTreeMap::new());
        assert_eq!(store.total_bytes(), 150);
        store.delete("c", "a").unwrap();
        assert_eq!(store.total_bytes(), 50);
        assert!(store.get("c", "a").is_err());
    }
}
