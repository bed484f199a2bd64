//! Tub records → training tensors.

use autolearn_nn::models::ModelConfig;
use autolearn_nn::{Dataset, Tensor};
use autolearn_tub::Record;
use autolearn_util::{Bytes, Image};

/// Convert an image to the `[C, H, W]` f32 tensor a model expects,
/// resizing and collapsing channels as needed.
pub fn image_to_input(image: &Image, cfg: &ModelConfig) -> Tensor {
    let img = if cfg.channels == 1 && image.channels != 1 {
        image.to_grayscale()
    } else {
        image.clone()
    };
    let img = if img.width != cfg.width || img.height != cfg.height {
        img.resize(cfg.width, cfg.height)
    } else {
        img
    };
    // HWC u8 → CHW f32 in [0, 1].
    let mut data = vec![0.0f32; cfg.channels * cfg.height * cfg.width];
    for y in 0..cfg.height {
        for x in 0..cfg.width {
            for c in 0..cfg.channels {
                data[c * cfg.height * cfg.width + y * cfg.width + x] =
                    f32::from(img.get(x, y, c)) / 255.0;
            }
        }
    }
    Tensor::from_vec(&[cfg.channels, cfg.height, cfg.width], data)
}

/// Build a supervised frame dataset from tub records (records without an
/// image are skipped). Use `autolearn_nn::models::prepare_dataset` to adapt
/// the result to sequence/memory models.
pub fn records_to_dataset(records: &[Record], cfg: &ModelConfig) -> Dataset {
    let n = records.iter().filter(|r| r.image.is_some()).count();
    assert!(n > 0, "no records with images");
    // Each frame is written straight into the one `[N, C, H, W]` buffer.
    let frame = [cfg.channels, cfg.height, cfg.width];
    let mut data = Vec::with_capacity(n * frame.iter().product::<usize>());
    let mut steering = Vec::with_capacity(n);
    let mut throttle = Vec::with_capacity(n);
    for r in records {
        if let Some(img) = &r.image {
            data.extend_from_slice(image_to_input(img, cfg).data());
            steering.push(r.steering);
            throttle.push(r.throttle);
        }
    }
    let input = Tensor::from_vec(&[n, frame[0], frame[1], frame[2]], data);
    Dataset::new(input, steering, throttle)
}

/// Mirror augmentation: append a horizontally-flipped copy of every record
/// with the steering sign negated (throttle unchanged). Doubles the
/// dataset and symmetrises the steering distribution — the standard
/// DonkeyCar trick for ovals driven in one direction.
pub fn mirror_augment(records: &[Record]) -> Vec<Record> {
    let mut out = Vec::with_capacity(records.len() * 2);
    out.extend_from_slice(records);
    let base_id = records.iter().map(|r| r.id).max().map_or(0, |m| m + 1);
    for (k, r) in records.iter().enumerate() {
        let mut m = r.clone();
        m.id = base_id + k as u64;
        m.steering = -r.steering;
        m.image = r.image.as_ref().map(|img| img.flip_horizontal());
        out.push(m);
    }
    out
}

/// Approximate on-disk size of a tub with these records, for the network
/// transfer model: raw image bytes + ~150 B of catalog JSON per record.
pub fn tub_bytes_estimate(records: &[Record]) -> Bytes {
    records
        .iter()
        .map(|r| Bytes::new(150 + r.image.as_ref().map(|i| i.len() as u64 + 12).unwrap_or(0)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with_gradient(id: u64, w: usize, h: usize, c: usize) -> Record {
        let mut img = Image::new(w, h, c);
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    img.set(x, y, ch, ((x * 255) / w.max(1)) as u8);
                }
            }
        }
        Record::new(id, 0.1, 0.5, id * 50, img)
    }

    fn cfg() -> ModelConfig {
        ModelConfig {
            height: 30,
            width: 40,
            channels: 1,
            ..Default::default()
        }
    }

    #[test]
    fn image_conversion_shape_and_range() {
        let r = record_with_gradient(0, 40, 30, 1);
        let t = image_to_input(r.image.as_ref().unwrap(), &cfg());
        assert_eq!(t.shape(), &[1, 30, 40]);
        assert!(t.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Left column dark, right column bright.
        assert!(t.data()[0] < t.data()[39]);
    }

    #[test]
    fn rgb_downscales_to_gray_config() {
        let r = record_with_gradient(0, 160, 120, 3);
        let t = image_to_input(r.image.as_ref().unwrap(), &cfg());
        assert_eq!(t.shape(), &[1, 30, 40]);
    }

    #[test]
    fn dataset_aligns_targets() {
        let records: Vec<Record> = (0..10)
            .map(|i| record_with_gradient(i, 40, 30, 1))
            .collect();
        let d = records_to_dataset(&records, &cfg());
        assert_eq!(d.len(), 10);
        assert_eq!(d.inputs()[0].shape(), &[10, 1, 30, 40]);
        assert!((d.steering()[3] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn dataset_is_the_stacked_frame_inputs() {
        let mut records: Vec<Record> = (0..6).map(|i| record_with_gradient(i, 80, 60, 3)).collect();
        records[4].image = None;
        let d = records_to_dataset(&records, &cfg());
        let frames: Vec<Tensor> = records
            .iter()
            .filter_map(|r| r.image.as_ref().map(|img| image_to_input(img, &cfg())))
            .collect();
        assert_eq!(d.inputs()[0], Tensor::stack(&frames));
    }

    #[test]
    fn records_without_images_skipped() {
        let mut records: Vec<Record> = (0..5).map(|i| record_with_gradient(i, 40, 30, 1)).collect();
        records[2].image = None;
        let d = records_to_dataset(&records, &cfg());
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn mirror_augment_doubles_and_negates() {
        let records: Vec<Record> = (0..5)
            .map(|i| {
                let mut r = record_with_gradient(i, 8, 6, 1);
                r.steering = 0.1 * (i as f32 + 1.0);
                r
            })
            .collect();
        let aug = mirror_augment(&records);
        assert_eq!(aug.len(), 10);
        // Ids stay unique.
        let mut ids: Vec<u64> = aug.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        // Mirrored half negates steering and flips the image.
        for k in 0..5 {
            assert_eq!(aug[5 + k].steering, -records[k].steering);
            assert_eq!(aug[5 + k].throttle, records[k].throttle);
            let orig = records[k].image.as_ref().unwrap();
            let flip = aug[5 + k].image.as_ref().unwrap();
            assert_eq!(flip.get(0, 0, 0), orig.get(7, 0, 0));
        }
        // Steering now symmetric: mean zero (up to f32 summation error).
        let mean: f32 = aug.iter().map(|r| r.steering).sum::<f32>() / 10.0;
        assert!(mean.abs() < 1e-7, "mean {mean}");
    }

    #[test]
    fn mirror_augment_of_empty_is_empty() {
        assert!(mirror_augment(&[]).is_empty());
    }

    #[test]
    fn byte_estimate_scales_with_resolution() {
        let small: Vec<Record> = (0..10)
            .map(|i| record_with_gradient(i, 40, 30, 1))
            .collect();
        let large: Vec<Record> = (0..10)
            .map(|i| record_with_gradient(i, 160, 120, 3))
            .collect();
        assert!(tub_bytes_estimate(&large) > tub_bytes_estimate(&small) * 10);
        // 40x30x1 + 12 + 150 = 1362 per record.
        assert_eq!(tub_bytes_estimate(&small), Bytes::new(10 * 1362));
    }
}
