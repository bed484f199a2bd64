//! `tubclean`: finding and marking bad records.
//!
//! The paper (§3.3, "Additional data collection"): *"Learners will likely
//! generate some bad data consisting of mistakes (i.e., crashes or images
//! that are off-side) while driving; this data need to be deleted for the
//! training set to represent a valid scenario."* DonkeyCar's `tubclean`
//! plays the video and a human selects ranges to delete. The reproduction's
//! collector (the simulator) records ground-truth `crashed`/`off_track`
//! flags, so cleaning is automated here: flag those records plus a
//! surrounding margin (a human deletes the *approach* to a crash too), and
//! optionally frames whose image statistics look wrong (lens blackouts).

use crate::record::Record;
use serde::{Deserialize, Serialize};

/// Cleaning thresholds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CleanConfig {
    /// Also mark this many records *before* each crash/off-track event
    /// (the bad approach that caused it).
    pub margin_before: usize,
    /// ... and this many after (recovery wobble).
    pub margin_after: usize,
    /// Flag frames with mean intensity below this (dead camera).
    pub min_mean_intensity: f64,
    /// Flag frames with mean intensity above this (washed out).
    pub max_mean_intensity: f64,
}

impl Default for CleanConfig {
    fn default() -> Self {
        CleanConfig {
            margin_before: 5,
            margin_after: 3,
            min_mean_intensity: 2.0,
            max_mean_intensity: 253.0,
        }
    }
}

/// Why a record was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CleanReason {
    Crash,
    OffTrack,
    NearIncident,
    BadImage,
}

/// Outcome of a cleaning pass.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CleanReport {
    /// (record id, reason) for every flagged record, in id order.
    pub flagged: Vec<(u64, CleanReason)>,
}

impl CleanReport {
    /// Ids of every flagged record, in flag order.
    pub fn flagged_ids(&self) -> Vec<u64> {
        self.flagged.iter().map(|(id, _)| *id).collect()
    }

    /// Total flagged records.
    pub fn count(&self) -> usize {
        self.flagged.len()
    }

    /// Flagged records carrying `reason`.
    pub fn count_reason(&self, reason: CleanReason) -> usize {
        self.flagged.iter().filter(|(_, r)| *r == reason).count()
    }
}

/// The cleaning pass itself.
pub struct TubCleaner {
    pub config: CleanConfig,
}

impl TubCleaner {
    /// A cleaner with the given thresholds.
    pub fn new(config: CleanConfig) -> TubCleaner {
        TubCleaner { config }
    }

    /// Analyse an ordered record slice and report what to delete.
    /// Records flagged directly keep their primary reason; margin records
    /// get [`CleanReason::NearIncident`].
    pub fn analyse(&self, records: &[Record]) -> CleanReport {
        let n = records.len();
        let mut reasons: Vec<Option<CleanReason>> = vec![None; n];

        // Primary flags.
        for (i, r) in records.iter().enumerate() {
            if r.crashed {
                reasons[i] = Some(CleanReason::Crash);
            } else if r.off_track {
                reasons[i] = Some(CleanReason::OffTrack);
            } else if let Some(img) = &r.image {
                let m = img.mean_intensity();
                if m < self.config.min_mean_intensity || m > self.config.max_mean_intensity {
                    reasons[i] = Some(CleanReason::BadImage);
                }
            }
        }

        // Margins around crash/off-track incidents.
        let mut near = vec![false; n];
        for (i, reason) in reasons.iter().enumerate() {
            if matches!(
                reason,
                Some(CleanReason::Crash) | Some(CleanReason::OffTrack)
            ) {
                let lo = i.saturating_sub(self.config.margin_before);
                let hi = (i + self.config.margin_after + 1).min(n);
                for flag in near.iter_mut().take(hi).skip(lo) {
                    *flag = true;
                }
            }
        }
        for i in 0..n {
            if near[i] && reasons[i].is_none() {
                reasons[i] = Some(CleanReason::NearIncident);
            }
        }

        CleanReport {
            flagged: records
                .iter()
                .zip(&reasons)
                .filter_map(|(r, reason)| reason.map(|rr| (r.id, rr)))
                .collect(),
        }
    }

    /// Analyse and mark in one step; returns the report.
    pub fn clean_tub(&self, tub: &mut crate::tub::Tub) -> Result<CleanReport, crate::TubError> {
        let mut records = tub.read_all()?;
        for r in &mut records {
            // Image stats need pixels; tolerate missing files (id reuse
            // after manual edits) by skipping the image heuristic.
            r.image = tub.read_image(r.id).ok();
        }
        let report = self.analyse(&records);
        tub.mark_deleted(report.flagged_ids())?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_util::Image;

    fn rec(id: u64, crashed: bool, off: bool) -> Record {
        let mut r = Record::new(id, 0.0, 0.5, id * 50, Image::new(4, 4, 1));
        // Mid-grey image so the intensity heuristic stays quiet.
        if let Some(img) = &mut r.image {
            img.data.fill(128);
        }
        r.crashed = crashed;
        r.off_track = off;
        r
    }

    #[test]
    fn clean_data_stays_clean() {
        let records: Vec<Record> = (0..20).map(|i| rec(i, false, false)).collect();
        let report = TubCleaner::new(CleanConfig::default()).analyse(&records);
        assert_eq!(report.count(), 0);
    }

    #[test]
    fn crash_flags_with_margin() {
        let mut records: Vec<Record> = (0..20).map(|i| rec(i, false, false)).collect();
        records[10].crashed = true;
        let cleaner = TubCleaner::new(CleanConfig {
            margin_before: 2,
            margin_after: 1,
            ..Default::default()
        });
        let report = cleaner.analyse(&records);
        // 8, 9 (before), 10 (crash), 11 (after).
        assert_eq!(report.flagged_ids(), vec![8, 9, 10, 11]);
        assert_eq!(report.count_reason(CleanReason::Crash), 1);
        assert_eq!(report.count_reason(CleanReason::NearIncident), 3);
    }

    #[test]
    fn margin_clips_at_bounds() {
        let mut records: Vec<Record> = (0..5).map(|i| rec(i, false, false)).collect();
        records[0].crashed = true;
        records[4].off_track = true;
        let cleaner = TubCleaner::new(CleanConfig {
            margin_before: 3,
            margin_after: 3,
            ..Default::default()
        });
        let report = cleaner.analyse(&records);
        assert_eq!(report.count(), 5);
    }

    #[test]
    fn dead_camera_flagged() {
        let mut records: Vec<Record> = (0..3).map(|i| rec(i, false, false)).collect();
        if let Some(img) = &mut records[1].image {
            img.data.fill(0);
        }
        let report = TubCleaner::new(CleanConfig::default()).analyse(&records);
        assert_eq!(report.flagged, vec![(1, CleanReason::BadImage)]);
    }

    #[test]
    fn bad_image_gets_no_margin() {
        let mut records: Vec<Record> = (0..9).map(|i| rec(i, false, false)).collect();
        if let Some(img) = &mut records[4].image {
            img.data.fill(255);
        }
        let report = TubCleaner::new(CleanConfig::default()).analyse(&records);
        assert_eq!(report.count(), 1);
    }

    #[test]
    fn clean_tub_end_to_end() {
        use crate::tub::testutil::TempDir;
        use crate::tub::Tub;
        let tmp = TempDir::new("clean");
        let mut tub = Tub::create(tmp.0.join("tub")).unwrap();
        for i in 0..12u64 {
            let mut r = rec(0, false, false);
            r.crashed = i == 6;
            r.timestamp_ms = i * 50;
            tub.write_record(r).unwrap();
        }
        let cleaner = TubCleaner::new(CleanConfig {
            margin_before: 1,
            margin_after: 1,
            ..Default::default()
        });
        let report = cleaner.clean_tub(&mut tub).unwrap();
        assert_eq!(report.flagged_ids(), vec![5, 6, 7]);
        assert_eq!(tub.live_record_count(), 9);
    }
}
