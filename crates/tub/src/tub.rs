//! On-disk tub storage.

use crate::record::Record;
use crate::RECORDS_PER_CATALOG;
use autolearn_util::Image;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Errors raised by tub I/O.
#[derive(Debug)]
pub enum TubError {
    Io(std::io::Error),
    Corrupt(String),
}

impl std::fmt::Display for TubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TubError::Io(e) => write!(f, "tub io error: {e}"),
            TubError::Corrupt(m) => write!(f, "corrupt tub: {m}"),
        }
    }
}

impl std::error::Error for TubError {}

impl From<std::io::Error> for TubError {
    fn from(e: std::io::Error) -> Self {
        TubError::Io(e)
    }
}

impl From<serde_json::Error> for TubError {
    fn from(e: serde_json::Error) -> Self {
        TubError::Corrupt(e.to_string())
    }
}

/// `manifest.json`: tub metadata and deletion marks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Manifest {
    /// Free-form session metadata (track name, driver, car config).
    pub metadata: std::collections::BTreeMap<String, String>,
    /// Ids marked for deletion (the paper: "certain records are marked for
    /// deletion" in manifest.json).
    pub deleted_ids: BTreeSet<u64>,
    pub next_id: u64,
}

/// One entry of `catalog_manifest.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogEntry {
    pub path: String,
    pub start_id: u64,
    pub record_count: usize,
}

/// A DonkeyCar-format dataset directory.
pub struct Tub {
    dir: PathBuf,
    manifest: Manifest,
    catalogs: Vec<CatalogEntry>,
    /// Open catalog writer state: records written to the current catalog.
    current_count: usize,
}

impl Tub {
    /// Create a new tub at `dir` (created if absent; must be empty of tub
    /// files).
    pub fn create(dir: impl AsRef<Path>) -> Result<Tub, TubError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(dir.join("images"))?;
        if dir.join("manifest.json").exists() {
            return Err(TubError::Corrupt(format!(
                "{} already contains a tub",
                dir.display()
            )));
        }
        let tub = Tub {
            dir,
            manifest: Manifest::default(),
            catalogs: Vec::new(),
            current_count: 0,
        };
        tub.flush_manifests()?;
        Ok(tub)
    }

    /// Open an existing tub.
    pub fn open(dir: impl AsRef<Path>) -> Result<Tub, TubError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(dir.join("manifest.json"))?)?;
        let catalogs: Vec<CatalogEntry> =
            serde_json::from_str(&fs::read_to_string(dir.join("catalog_manifest.json"))?)?;
        let current_count = catalogs.last().map(|c| c.record_count).unwrap_or(0);
        Ok(Tub {
            dir,
            manifest,
            catalogs,
            current_count,
        })
    }

    /// The tub's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Mutable access to the manifest metadata map.
    pub fn metadata_mut(&mut self) -> &mut std::collections::BTreeMap<String, String> {
        &mut self.manifest.metadata
    }

    /// The manifest metadata map.
    pub fn metadata(&self) -> &std::collections::BTreeMap<String, String> {
        &self.manifest.metadata
    }

    /// Total records written (including deleted-marked ones).
    pub fn record_count(&self) -> usize {
        self.catalogs.iter().map(|c| c.record_count).sum()
    }

    /// Records not marked deleted; marks on never-assigned ids do not count.
    pub fn live_record_count(&self) -> usize {
        let m = &self.manifest;
        let marked = m.deleted_ids.range(..m.next_id).count();
        self.record_count().saturating_sub(marked)
    }

    /// Ids marked deleted in the manifest.
    pub fn deleted_ids(&self) -> &BTreeSet<u64> {
        &self.manifest.deleted_ids
    }

    /// Number of catalog files written so far.
    pub fn catalog_count(&self) -> usize {
        self.catalogs.len()
    }

    /// Append a record; assigns and returns its id. The image is written to
    /// `images/<id>.img`, the rest to the current catalog file.
    pub fn write_record(&mut self, mut record: Record) -> Result<u64, TubError> {
        let id = self.manifest.next_id;
        self.manifest.next_id += 1;
        record.id = id;

        let image = record
            .image
            .take()
            .ok_or_else(|| TubError::Corrupt("record has no image".into()))?;
        write_image(&self.dir.join("images").join(format!("{id}.img")), &image)?;

        // Rotate catalog if needed.
        if self.catalogs.is_empty() || self.current_count >= RECORDS_PER_CATALOG {
            let idx = self.catalogs.len();
            self.catalogs.push(CatalogEntry {
                path: format!("data_{idx}.catalog"),
                start_id: id,
                record_count: 0,
            });
            self.current_count = 0;
        }
        let entry = match self.catalogs.last_mut() {
            Some(entry) => entry,
            None => return Err(TubError::Corrupt("no catalog after rotation".into())),
        };
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(&entry.path))?;
        writeln!(f, "{}", record.to_catalog_line()?)?;
        entry.record_count += 1;
        self.current_count += 1;

        self.flush_manifests()?;
        Ok(id)
    }

    /// Read every record (catalog metadata only; no images) in id order,
    /// including deleted-marked records.
    pub fn read_all(&self) -> Result<Vec<Record>, TubError> {
        let mut out = Vec::with_capacity(self.record_count());
        for entry in &self.catalogs {
            let f = fs::File::open(self.dir.join(&entry.path))?;
            for line in BufReader::new(f).lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                out.push(Record::from_catalog_line(&line)?);
            }
        }
        Ok(out)
    }

    /// Read records that are not marked deleted, loading their images.
    pub fn read_live(&self) -> Result<Vec<Record>, TubError> {
        let mut records = self.read_all()?;
        records.retain(|r| !self.manifest.deleted_ids.contains(&r.id));
        for r in &mut records {
            r.image = Some(self.read_image(r.id)?);
        }
        Ok(records)
    }

    /// Load the frame for record `id`.
    pub fn read_image(&self, id: u64) -> Result<Image, TubError> {
        read_image(&self.dir.join("images").join(format!("{id}.img")))
    }

    /// Mark records for deletion (tubclean's output).
    pub fn mark_deleted(&mut self, ids: impl IntoIterator<Item = u64>) -> Result<(), TubError> {
        self.manifest.deleted_ids.extend(ids);
        self.flush_manifests()
    }

    /// Unmark records.
    pub fn restore(&mut self, ids: impl IntoIterator<Item = u64>) -> Result<(), TubError> {
        for id in ids {
            self.manifest.deleted_ids.remove(&id);
        }
        self.flush_manifests()
    }

    fn flush_manifests(&self) -> Result<(), TubError> {
        fs::write(
            self.dir.join("manifest.json"),
            serde_json::to_string_pretty(&self.manifest)?,
        )?;
        fs::write(
            self.dir.join("catalog_manifest.json"),
            serde_json::to_string_pretty(&self.catalogs)?,
        )?;
        Ok(())
    }
}

fn write_image(path: &Path, image: &Image) -> Result<(), TubError> {
    // Tiny header (w, h, c as little-endian u32) + raw bytes: enough
    // fidelity for the reproduction without a JPEG codec.
    let mut buf = Vec::with_capacity(12 + image.data.len());
    buf.extend_from_slice(&(image.width as u32).to_le_bytes());
    buf.extend_from_slice(&(image.height as u32).to_le_bytes());
    buf.extend_from_slice(&(image.channels as u32).to_le_bytes());
    buf.extend_from_slice(&image.data);
    fs::write(path, buf)?;
    Ok(())
}

fn read_image(path: &Path) -> Result<Image, TubError> {
    let buf = fs::read(path)?;
    if buf.len() < 12 {
        return Err(TubError::Corrupt(format!("{} truncated", path.display())));
    }
    let header_field = |i: usize| -> Result<usize, TubError> {
        let bytes = buf
            .get(i * 4..i * 4 + 4)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .ok_or_else(|| TubError::Corrupt(format!("{} header truncated", path.display())))?;
        Ok(u32::from_le_bytes(bytes) as usize)
    };
    let w = header_field(0)?;
    let h = header_field(1)?;
    let c = header_field(2)?;
    let pixels = w.checked_mul(h).and_then(|n| n.checked_mul(c));
    if pixels != Some(buf.len() - 12) {
        return Err(TubError::Corrupt(format!(
            "{}: header {w}x{h}x{c} does not match {} pixel bytes",
            path.display(),
            buf.len() - 12
        )));
    }
    Ok(Image {
        width: w,
        height: h,
        channels: c,
        data: buf[12..].to_vec(),
    })
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory, removed on drop.
    pub struct TempDir(pub PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> TempDir {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "autolearn-tub-test-{tag}-{}-{n}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TempDir;
    use super::*;

    fn frame(seed: u8) -> Image {
        let mut img = Image::new(8, 6, 1);
        for (i, px) in img.data.iter_mut().enumerate() {
            *px = seed.wrapping_add(i as u8);
        }
        img
    }

    fn write_n(tub: &mut Tub, n: usize) {
        for i in 0..n {
            let r = Record::new(
                0,
                (i as f32 / n as f32) * 2.0 - 1.0,
                0.5,
                i as u64 * 50,
                frame(i as u8),
            );
            tub.write_record(r).unwrap();
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let mut tub = Tub::create(tmp.0.join("tub")).unwrap();
        write_n(&mut tub, 5);
        assert_eq!(tub.record_count(), 5);

        let records = tub.read_live().unwrap();
        assert_eq!(records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            let img = r.image.as_ref().unwrap();
            assert_eq!(img.width, 8);
            assert_eq!(img.data, frame(i as u8).data);
        }
    }

    #[test]
    fn layout_matches_paper_description() {
        let tmp = TempDir::new("layout");
        let dir = tmp.0.join("tub");
        let mut tub = Tub::create(&dir).unwrap();
        write_n(&mut tub, 3);
        assert!(dir.join("manifest.json").exists());
        assert!(dir.join("catalog_manifest.json").exists());
        assert!(dir.join("data_0.catalog").exists());
        assert!(dir.join("images/0.img").exists());
        assert!(dir.join("images/2.img").exists());
    }

    #[test]
    fn catalog_rotation_at_limit() {
        let tmp = TempDir::new("rotate");
        let mut tub = Tub::create(tmp.0.join("tub")).unwrap();
        write_n(&mut tub, RECORDS_PER_CATALOG + 5);
        assert_eq!(tub.catalog_count(), 2);
        assert!(tub.dir().join("data_1.catalog").exists());
        let all = tub.read_all().unwrap();
        assert_eq!(all.len(), RECORDS_PER_CATALOG + 5);
        // Ids remain monotonic across the rotation.
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn deletion_marks_hide_records() {
        let tmp = TempDir::new("delete");
        let mut tub = Tub::create(tmp.0.join("tub")).unwrap();
        write_n(&mut tub, 10);
        tub.mark_deleted([2u64, 5, 7]).unwrap();
        assert_eq!(tub.live_record_count(), 7);
        let live = tub.read_live().unwrap();
        assert_eq!(live.len(), 7);
        assert!(live.iter().all(|r| ![2u64, 5, 7].contains(&r.id)));
        // read_all still sees everything (marks, not physical deletion).
        assert_eq!(tub.read_all().unwrap().len(), 10);

        tub.restore([5u64]).unwrap();
        assert_eq!(tub.live_record_count(), 8);
    }

    #[test]
    fn reopen_preserves_state() {
        let tmp = TempDir::new("reopen");
        let dir = tmp.0.join("tub");
        {
            let mut tub = Tub::create(&dir).unwrap();
            tub.metadata_mut()
                .insert("track".into(), "paper-oval".into());
            write_n(&mut tub, 4);
            tub.mark_deleted([1u64]).unwrap();
        }
        let mut tub = Tub::open(&dir).unwrap();
        assert_eq!(tub.record_count(), 4);
        assert_eq!(tub.live_record_count(), 3);
        assert_eq!(tub.metadata()["track"], "paper-oval");
        // Appending continues the id sequence.
        let id = tub
            .write_record(Record::new(0, 0.0, 0.5, 999, frame(9)))
            .unwrap();
        assert_eq!(id, 4);
    }

    #[test]
    fn create_refuses_existing_tub() {
        let tmp = TempDir::new("exists");
        let dir = tmp.0.join("tub");
        let _tub = Tub::create(&dir).unwrap();
        assert!(Tub::create(&dir).is_err());
    }

    #[test]
    fn corrupt_image_detected() {
        let tmp = TempDir::new("corrupt");
        let dir = tmp.0.join("tub");
        let mut tub = Tub::create(&dir).unwrap();
        write_n(&mut tub, 1);
        std::fs::write(dir.join("images/0.img"), [1, 2, 3]).unwrap();
        assert!(matches!(tub.read_image(0), Err(TubError::Corrupt(_))));
    }

    #[test]
    fn overflowing_image_header_is_corrupt() {
        let tmp = TempDir::new("overflow");
        let dir = tmp.0.join("tub");
        let mut tub = Tub::create(&dir).unwrap();
        write_n(&mut tub, 1);
        // w * h * c = 2^64 wraps to 0, matching a header-only file.
        let mut header = Vec::new();
        for dim in [1u32 << 22, 1 << 22, 1 << 20] {
            header.extend_from_slice(&dim.to_le_bytes());
        }
        std::fs::write(dir.join("images/0.img"), header).unwrap();
        assert!(matches!(tub.read_image(0), Err(TubError::Corrupt(_))));
    }

    #[test]
    fn marks_on_unassigned_ids_do_not_count() {
        let tmp = TempDir::new("unassigned");
        let mut tub = Tub::create(tmp.0.join("tub")).unwrap();
        write_n(&mut tub, 2);
        tub.mark_deleted([5u64, 6, 7]).unwrap();
        assert_eq!(tub.live_record_count(), tub.read_live().unwrap().len());
        assert_eq!(tub.live_record_count(), 2);
    }
}
