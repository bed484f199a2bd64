//! Pinned camera frames: FNV-1a hashes of 160×120 RGB renders at fixed
//! poses, clean and with pixel noise. Any change to the renderer, the
//! surface raster or the exact projection that moves a single pixel shows
//! up here, whichever classifier path the pixel takes.

use autolearn_sim::{Camera, CameraConfig, VehicleState};
use autolearn_track::{circle_track, paper_oval, Track};

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike
/// `std`'s `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Twelve poses round the track: centred, near either tape, off the
/// track, and twisted away from the centerline heading.
fn poses(track: &Track) -> Vec<VehicleState> {
    let offsets = [
        (0.0, 0.0),
        (0.15, 0.1),
        (-0.25, 0.3),
        (0.3, -0.5),
        (-0.1, -0.2),
        (0.9, 1.2),
    ];
    (0..12)
        .map(|k| {
            let s = track.length() * k as f64 / 12.0;
            let (lateral, twist) = offsets[k % offsets.len()];
            VehicleState::at(track.offset_point(s, lateral), track.heading_at(s) + twist)
        })
        .collect()
}

/// Hashes of the frames one camera renders at every pose, in order, so a
/// noisy camera's random stream runs through all of them.
fn frame_hashes(track: &Track, config: CameraConfig) -> Vec<u64> {
    let mut cam = Camera::new(config);
    poses(track)
        .iter()
        .map(|state| fnv1a(&cam.render(track, state).data))
        .collect()
}

/// Recorded before the candidate table replaced the ring scan in
/// `Track::project`, which every mixed raster sub-cell runs.
const PAPER_OVAL_CLEAN: [u64; 12] = [
    0x5b9575befd002ec9,
    0x89cf75b420cafd2d,
    0x90e0c0726d6156c9,
    0xe8a22e671b72cbe1,
    0x3295cc3f37e03311,
    0x8b2036ce22c5106d,
    0x2f8c5ea83fd699bd,
    0xf8a876be966dfe29,
    0x08e801719c510ac5,
    0x26fdd6abac66b741,
    0xdcbc5fb17c540b3d,
    0x6486c75bd7ae5c99,
];
const PAPER_OVAL_NOISY: [u64; 12] = [
    0xad89e243233f8226,
    0x9ae089dc80d0f73d,
    0xb1a4ead482005f17,
    0xe467481aee76abf7,
    0xb81207d0b2c34ea4,
    0x10af640f17e53759,
    0xc995da649246f4f7,
    0x70f425961370f3e8,
    0x33abc9fa4bb95b59,
    0xb7cb70e732fec6b7,
    0x422f12f866580c0c,
    0xf6bf984715d52757,
];
const CIRCLE_CLEAN: [u64; 12] = [
    0x9c95dd16413c104d,
    0x96c5c66720916c69,
    0xdfc80169279b2b85,
    0xa7ea92b27769a491,
    0x6f170e1e0d4ba0e9,
    0x804204a9d83e3d1d,
    0x9e7a0941b6e7a4d5,
    0xf259d972323d41fd,
    0x881d6f77ce711879,
    0xe8c91e2c6ebbfadd,
    0xc019550272e5d615,
    0xd3f1a04e22f156bd,
];
const CIRCLE_NOISY: [u64; 12] = [
    0x22ef049944f99dda,
    0xf169432f60170c89,
    0xd17d024c70f27a33,
    0x419cfdd1ff5e0c37,
    0x5b6b42784807778c,
    0x6e66a660355d11e1,
    0x32c568bb4526b30f,
    0xe5e8043f6c1404bc,
    0x2d4c6f65b7519fd5,
    0x5449d5df610a1c5b,
    0x135d2a804fb8d1d4,
    0x4c5a2d5aad796ab3,
];

#[test]
fn frames_match_pinned_hashes() {
    let noisy = CameraConfig::default().with_noise(6.0, 23);
    let cases = [
        (
            "paper_oval clean",
            paper_oval(),
            CameraConfig::default(),
            PAPER_OVAL_CLEAN,
        ),
        (
            "paper_oval noisy",
            paper_oval(),
            noisy.clone(),
            PAPER_OVAL_NOISY,
        ),
        (
            "circle clean",
            circle_track(3.0, 0.8),
            CameraConfig::default(),
            CIRCLE_CLEAN,
        ),
        ("circle noisy", circle_track(3.0, 0.8), noisy, CIRCLE_NOISY),
    ];
    for (name, track, config, pinned) in cases {
        let got = frame_hashes(&track, config);
        for (k, (&g, &want)) in got.iter().zip(&pinned).enumerate() {
            assert_eq!(
                g, want,
                "{name}: frame {k} hash {g:#018x}, pinned {want:#018x}"
            );
        }
    }
}
