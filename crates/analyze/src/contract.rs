//! Static pipeline contract pass.
//!
//! Every stage of the continuum pipeline declares a [`StageSpec`]: which
//! artifact kinds it consumes and produces, and the unit of every quantity
//! it reports. [`validate_pipeline`] checks the whole chain — collect →
//! clean → reserve → provision+upload → train → deploy → evaluate —
//! *statically*, before a single simulated second is spent:
//!
//! * **artifact flow / ordering** — a stage may only consume artifacts some
//!   strictly earlier stage produced, and no artifact may be produced
//!   twice. Reordering the chain (train before the tub upload, say) is a
//!   contract error, not a runtime surprise.
//! * **units** — reported quantity names carry their unit in a suffix
//!   convention (`_s`, `_bytes`, `_bps`, `epochs`, `records`); a declared
//!   [`Unit`] that contradicts the name (seconds where bytes are expected)
//!   is rejected. This is the static twin of the runtime newtypes in
//!   `autolearn_util::units`.
//! * **shapes and dtype** — the model graph is validated symbolically via
//!   [`validate_model`], and the tub→model tensor handoff is checked: the
//!   frame dimensions the camera/tub produce must match the frame slice of
//!   the model's input layout, and frames must cross the boundary as `f32`.
//!
//! The pass is pure data → data: no I/O, no dependencies, callable from
//! `autolearn-core`'s `Pipeline::preflight` and from tests.

use crate::graph::{validate_model, ModelSpec};
use std::fmt;

/// An artifact kind flowing between pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// Raw tub records straight off the car.
    RawTub,
    /// Tub after the tubclean review pass.
    CleanTub,
    /// An admitted GPU lease on the testbed.
    GpuLease,
    /// The tub, rsynced up to the GPU node.
    RemoteTub,
    /// Trained model weights on the GPU node.
    TrainedWeights,
    /// The model, downloaded and running in the car's container.
    DeployedModel,
    /// Autonomous-lap evaluation metrics.
    EvalReport,
}

impl ArtifactKind {
    /// Stable name used in error messages.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::RawTub => "raw-tub",
            ArtifactKind::CleanTub => "clean-tub",
            ArtifactKind::GpuLease => "gpu-lease",
            ArtifactKind::RemoteTub => "remote-tub",
            ArtifactKind::TrainedWeights => "trained-weights",
            ArtifactKind::DeployedModel => "deployed-model",
            ArtifactKind::EvalReport => "eval-report",
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Physical unit of a reported quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Simulated seconds.
    Seconds,
    /// Payload sizes.
    Bytes,
    /// Transfer rates.
    BytesPerSec,
    /// Training-epoch counts.
    Epochs,
    /// Tub-record counts.
    Records,
    /// Ratios, counts of abstract things, unitless scores.
    Dimensionless,
}

impl Unit {
    /// Stable name used in error messages.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Seconds => "seconds",
            Unit::Bytes => "bytes",
            Unit::BytesPerSec => "bytes/s",
            Unit::Epochs => "epochs",
            Unit::Records => "records",
            Unit::Dimensionless => "dimensionless",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The unit a quantity name *implies* under the workspace's suffix
/// convention, or `None` when the name makes no unit claim.
///
/// `_bps` is checked before `_s` so rate names are not mistaken for
/// durations.
pub fn canonical_unit(name: &str) -> Option<Unit> {
    if name.ends_with("_bps") {
        Some(Unit::BytesPerSec)
    } else if name.ends_with("_bytes") || name == "bytes" {
        Some(Unit::Bytes)
    } else if name.ends_with("_s") || name.ends_with("_secs") || name.ends_with("_duration") {
        Some(Unit::Seconds)
    } else if name.ends_with("epochs") {
        Some(Unit::Epochs)
    } else if name.ends_with("records") {
        Some(Unit::Records)
    } else {
        None
    }
}

/// One quantity a stage reports, with its declared unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantitySpec {
    /// Quantity name; its suffix implies the canonical unit.
    pub name: String,
    /// The unit the stage claims to report this quantity in.
    pub unit: Unit,
}

/// The static contract of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Stage name as it appears in run logs (`"collect"`, `"train"`, ...).
    pub name: String,
    /// Artifacts this stage needs; each must be produced strictly earlier.
    pub consumes: Vec<ArtifactKind>,
    /// Artifacts this stage makes available to later stages.
    pub produces: Vec<ArtifactKind>,
    /// Quantities this stage reports, with declared units.
    pub reports: Vec<QuantitySpec>,
}

impl StageSpec {
    /// An empty stage contract named `name`; chain the builder methods.
    pub fn new(name: &str) -> StageSpec {
        StageSpec {
            name: name.to_string(),
            consumes: Vec::new(),
            produces: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Declare a consumed artifact.
    pub fn consumes(mut self, kind: ArtifactKind) -> StageSpec {
        self.consumes.push(kind);
        self
    }

    /// Declare a produced artifact.
    pub fn produces(mut self, kind: ArtifactKind) -> StageSpec {
        self.produces.push(kind);
        self
    }

    /// Declare a reported quantity and its unit.
    pub fn reports(mut self, name: &str, unit: Unit) -> StageSpec {
        self.reports.push(QuantitySpec {
            name: name.to_string(),
            unit,
        });
        self
    }
}

/// Scalar dtype of tensors crossing the tub→model boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// Raw camera bytes, 0..=255.
    U8,
    /// Normalised floats, the only dtype the models accept.
    F32,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DType::U8 => "u8",
            DType::F32 => "f32",
        })
    }
}

/// Where the camera frame lives inside the model's input tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameLayout {
    /// `[batch, channels, height, width]` — the single-frame models.
    Bchw,
    /// `[batch, time, channels, height, width]` — the RNN.
    Btchw,
    /// `[batch, channels, time, height, width]` — the 3D-conv model.
    Bcthw,
}

impl FrameLayout {
    /// Tensor rank this layout requires.
    pub fn rank(self) -> usize {
        match self {
            FrameLayout::Bchw => 4,
            FrameLayout::Btchw | FrameLayout::Bcthw => 5,
        }
    }

    /// The `(channels, height, width)` slice of `input` under this layout,
    /// or `None` when the rank is wrong.
    pub fn frame_dims(self, input: &[usize]) -> Option<(usize, usize, usize)> {
        match self {
            FrameLayout::Bchw if input.len() == 4 => Some((input[1], input[2], input[3])),
            FrameLayout::Btchw if input.len() == 5 => Some((input[2], input[3], input[4])),
            FrameLayout::Bcthw if input.len() == 5 => Some((input[1], input[3], input[4])),
            _ => None,
        }
    }
}

/// What the camera/tub side of the handoff actually produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameContract {
    /// Colour channels per frame.
    pub channels: usize,
    /// Frame height, pixels.
    pub height: usize,
    /// Frame width, pixels.
    pub width: usize,
    /// Dtype the frames cross the boundary as.
    pub dtype: DType,
}

/// One contract violation: where it was found and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractError {
    /// The stage, quantity or model location the error anchors to.
    pub location: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.message)
    }
}

/// Render contract errors one per line for logs and panics.
pub fn format_contract_errors(errors: &[ContractError]) -> String {
    errors
        .iter()
        .map(ContractError::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// What a clean [`validate_pipeline`] pass established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractReport {
    /// Stage names, in validated order.
    pub stages: Vec<String>,
    /// Every artifact the chain produces, in production order.
    pub artifacts: Vec<ArtifactKind>,
    /// How many reported quantities had their units checked.
    pub quantities_checked: usize,
    /// Feature width of the validated model graph.
    pub feature_dim: usize,
    /// Trainable parameters of the validated model graph.
    pub total_params: u64,
}

/// The canonical seven-stage AutoLearn chain, as `Pipeline::run` executes
/// it. When `clean` is false the review pass is skipped and the raw tub is
/// uploaded directly.
pub fn standard_stages(clean: bool) -> Vec<StageSpec> {
    let mut stages = vec![StageSpec::new("collect")
        .produces(ArtifactKind::RawTub)
        .reports("session_s", Unit::Seconds)
        .reports("collected_records", Unit::Records)];
    let upload_input = if clean {
        stages.push(
            StageSpec::new("clean")
                .consumes(ArtifactKind::RawTub)
                .produces(ArtifactKind::CleanTub)
                .reports("review_s", Unit::Seconds)
                .reports("kept_records", Unit::Records),
        );
        ArtifactKind::CleanTub
    } else {
        ArtifactKind::RawTub
    };
    stages.push(
        StageSpec::new("reserve")
            .produces(ArtifactKind::GpuLease)
            .reports("launch_s", Unit::Seconds),
    );
    stages.push(
        StageSpec::new("provision+upload")
            .consumes(upload_input)
            .consumes(ArtifactKind::GpuLease)
            .produces(ArtifactKind::RemoteTub)
            .reports("tub_bytes", Unit::Bytes)
            .reports("upload_s", Unit::Seconds)
            .reports("goodput_bps", Unit::BytesPerSec),
    );
    stages.push(
        StageSpec::new("train")
            .consumes(ArtifactKind::RemoteTub)
            .consumes(ArtifactKind::GpuLease)
            .produces(ArtifactKind::TrainedWeights)
            .reports("train_s", Unit::Seconds)
            .reports("planned_epochs", Unit::Epochs),
    );
    stages.push(
        StageSpec::new("deploy-model")
            .consumes(ArtifactKind::TrainedWeights)
            .produces(ArtifactKind::DeployedModel)
            .reports("model_bytes", Unit::Bytes)
            .reports("deploy_s", Unit::Seconds),
    );
    stages.push(
        StageSpec::new("evaluate")
            .consumes(ArtifactKind::DeployedModel)
            .produces(ArtifactKind::EvalReport)
            .reports("eval_s", Unit::Seconds)
            .reports("autonomy", Unit::Dimensionless),
    );
    stages
}

/// Validate the whole pipeline contract statically.
///
/// Checks, in order: stage names are unique; artifact flow is well-ordered
/// (consumed only after produced, produced at most once); every reported
/// quantity's declared unit agrees with the unit its name implies; the
/// model graph is internally consistent ([`validate_model`]); and the
/// tub→model handoff matches — `frames` must be `f32` and its
/// `(channels, height, width)` must equal the frame slice of the model's
/// input under `layout`.
///
/// All violations are accumulated and returned together.
pub fn validate_pipeline(
    stages: &[StageSpec],
    model: &ModelSpec,
    layout: FrameLayout,
    frames: &FrameContract,
) -> Result<ContractReport, Vec<ContractError>> {
    let mut errors = Vec::new();
    if stages.is_empty() {
        errors.push(ContractError {
            location: "pipeline".to_string(),
            message: "no stages declared".to_string(),
        });
    }

    // Stage-name uniqueness.
    for (i, stage) in stages.iter().enumerate() {
        if stages[..i].iter().any(|s| s.name == stage.name) {
            errors.push(ContractError {
                location: format!("stage '{}'", stage.name),
                message: "stage name declared twice".to_string(),
            });
        }
    }

    // Artifact flow: consumption strictly after production, no duplicate
    // producers. `produced` stays in production order for the report.
    let mut produced: Vec<ArtifactKind> = Vec::new();
    for stage in stages {
        for kind in &stage.consumes {
            if !produced.contains(kind) {
                errors.push(ContractError {
                    location: format!("stage '{}'", stage.name),
                    message: format!(
                        "consumes '{kind}' which no earlier stage produces \
                         (stage ordering violation)"
                    ),
                });
            }
        }
        for kind in &stage.produces {
            if produced.contains(kind) {
                errors.push(ContractError {
                    location: format!("stage '{}'", stage.name),
                    message: format!("produces '{kind}' which an earlier stage already produced"),
                });
            } else {
                produced.push(*kind);
            }
        }
    }
    // Dead artifacts: produced, never consumed, and not the terminal
    // report — a symptom of a stage wired to nothing.
    for kind in &produced {
        let consumed = stages.iter().any(|s| s.consumes.contains(kind));
        if !consumed && *kind != ArtifactKind::EvalReport {
            errors.push(ContractError {
                location: format!("artifact '{kind}'"),
                message: "produced but never consumed by any stage".to_string(),
            });
        }
    }

    // Units: declared unit must agree with the name's canonical unit.
    let mut quantities_checked = 0usize;
    for stage in stages {
        for (i, q) in stage.reports.iter().enumerate() {
            if stage.reports[..i].iter().any(|p| p.name == q.name) {
                errors.push(ContractError {
                    location: format!("stage '{}', quantity '{}'", stage.name, q.name),
                    message: "quantity reported twice in one stage".to_string(),
                });
            }
            quantities_checked += 1;
            if let Some(expected) = canonical_unit(&q.name) {
                if expected != q.unit {
                    errors.push(ContractError {
                        location: format!("stage '{}', quantity '{}'", stage.name, q.name),
                        message: format!(
                            "declared unit {} but the name implies {} (unit mismatch)",
                            q.unit, expected
                        ),
                    });
                }
            }
        }
    }

    // Dtype across the tub→model boundary.
    if frames.dtype != DType::F32 {
        errors.push(ContractError {
            location: "tub→model handoff".to_string(),
            message: format!(
                "frames cross the boundary as {} but the models consume f32; \
                 normalise before the forward pass (dtype mismatch)",
                frames.dtype
            ),
        });
    }

    // Model graph: symbolic shape propagation, then the frame-slice check.
    let mut feature_dim = 0usize;
    let mut total_params = 0u64;
    match validate_model(model) {
        Ok(report) => {
            feature_dim = report.feature_dim;
            total_params = report.total_params;
        }
        Err(graph_errors) => {
            errors.extend(graph_errors.into_iter().map(|e| ContractError {
                location: format!("model '{}', {}", model.name, e.location),
                message: e.message,
            }));
        }
    }
    match layout.frame_dims(&model.input) {
        None => errors.push(ContractError {
            location: format!("model '{}'", model.name),
            message: format!(
                "input rank {} does not match the declared {layout:?} layout (rank {})",
                model.input.len(),
                layout.rank()
            ),
        }),
        Some((c, h, w)) => {
            if (c, h, w) != (frames.channels, frames.height, frames.width) {
                errors.push(ContractError {
                    location: format!("model '{}'", model.name),
                    message: format!(
                        "expects {c}x{h}x{w} frames but the tub produces {}x{}x{} \
                         (shape mismatch)",
                        frames.channels, frames.height, frames.width
                    ),
                });
            }
        }
    }

    if errors.is_empty() {
        Ok(ContractReport {
            stages: stages.iter().map(|s| s.name.clone()).collect(),
            artifacts: produced,
            quantities_checked,
            feature_dim,
            total_params,
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LayerSpec;

    /// A minimal valid single-frame model: 3x8x8 frames through a conv and
    /// a dense feature layer.
    fn tiny_model(c: usize, h: usize, w: usize) -> ModelSpec {
        let conv = LayerSpec::Conv2D {
            in_channels: c,
            filters: 4,
            kernel: 3,
            stride: 1,
        };
        let flat = LayerSpec::Chain(vec![conv.clone(), LayerSpec::Flatten])
            .output_shape(&[1, c, h, w])
            .map(|s| s[1])
            .unwrap_or(0);
        ModelSpec {
            name: "tiny".to_string(),
            input: vec![1, c, h, w],
            layers: vec![
                conv,
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    input: flat,
                    output: 16,
                },
            ],
            aux_width: None,
            merge: Vec::new(),
            heads: vec![(
                "steering".to_string(),
                vec![LayerSpec::Dense {
                    input: 16,
                    output: 1,
                }],
            )],
            declared_params: None,
            declared_feature_dim: None,
        }
    }

    fn frames(c: usize, h: usize, w: usize) -> FrameContract {
        FrameContract {
            channels: c,
            height: h,
            width: w,
            dtype: DType::F32,
        }
    }

    #[test]
    fn standard_chain_validates_clean() {
        let report = validate_pipeline(
            &standard_stages(true),
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &frames(3, 8, 8),
        )
        .expect("standard chain is contract-clean");
        assert_eq!(report.stages.len(), 7);
        assert_eq!(*report.artifacts.last().unwrap(), ArtifactKind::EvalReport);
        assert!(report.quantities_checked >= 10);
        assert_eq!(report.feature_dim, 16);
        assert!(report.total_params > 0);
    }

    #[test]
    fn skipping_clean_still_validates() {
        let report = validate_pipeline(
            &standard_stages(false),
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &frames(3, 8, 8),
        )
        .expect("clean-less chain is contract-clean");
        assert_eq!(report.stages.len(), 6);
        assert!(!report.stages.contains(&"clean".to_string()));
    }

    #[test]
    fn unit_mismatch_is_rejected() {
        // Seconds declared where the name demands bytes.
        let mut stages = standard_stages(true);
        let upload = stages
            .iter_mut()
            .find(|s| s.name == "provision+upload")
            .unwrap();
        let q = upload
            .reports
            .iter_mut()
            .find(|q| q.name == "tub_bytes")
            .unwrap();
        q.unit = Unit::Seconds;
        let errors = validate_pipeline(
            &stages,
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &frames(3, 8, 8),
        )
        .expect_err("seconds-for-bytes must be rejected");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].location.contains("tub_bytes"), "{}", errors[0]);
        assert!(errors[0].message.contains("unit mismatch"), "{}", errors[0]);
        assert!(errors[0].message.contains("seconds"), "{}", errors[0]);
        assert!(errors[0].message.contains("bytes"), "{}", errors[0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        // Model trained for 3x8x8 frames, tub produces 1x4x4.
        let errors = validate_pipeline(
            &standard_stages(true),
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &frames(1, 4, 4),
        )
        .expect_err("frame-shape mismatch must be rejected");
        assert!(
            errors.iter().any(|e| e.message.contains("shape mismatch")),
            "{}",
            format_contract_errors(&errors)
        );
        assert!(errors.iter().any(|e| e.message.contains("1x4x4")));
    }

    #[test]
    fn stage_ordering_violation_is_rejected() {
        // Train hoisted before the tub ever reaches the GPU node.
        let mut stages = standard_stages(true);
        let train_idx = stages.iter().position(|s| s.name == "train").unwrap();
        let train = stages.remove(train_idx);
        stages.insert(0, train);
        let errors = validate_pipeline(
            &stages,
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &frames(3, 8, 8),
        )
        .expect_err("train-before-upload must be rejected");
        assert!(
            errors.iter().any(|e| e.location.contains("'train'")
                && e.message.contains("stage ordering violation")
                && e.message.contains("remote-tub")),
            "{}",
            format_contract_errors(&errors)
        );
    }

    #[test]
    fn u8_frames_are_rejected() {
        let mut f = frames(3, 8, 8);
        f.dtype = DType::U8;
        let errors = validate_pipeline(
            &standard_stages(true),
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &f,
        )
        .expect_err("u8 handoff must be rejected");
        assert_eq!(errors.len(), 1);
        assert!(
            errors[0].message.contains("dtype mismatch"),
            "{}",
            errors[0]
        );
    }

    #[test]
    fn duplicate_producer_is_rejected() {
        let mut stages = standard_stages(true);
        stages[2] = stages[2].clone().produces(ArtifactKind::RawTub);
        let errors = validate_pipeline(
            &stages,
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &frames(3, 8, 8),
        )
        .expect_err("double production must be rejected");
        assert!(errors
            .iter()
            .any(|e| e.message.contains("already produced")));
    }

    #[test]
    fn dead_artifact_is_rejected() {
        // An extra producer whose artifact nothing consumes.
        let mut stages = standard_stages(false);
        stages[0] = stages[0].clone().produces(ArtifactKind::CleanTub);
        let errors = validate_pipeline(
            &stages,
            &tiny_model(3, 8, 8),
            FrameLayout::Bchw,
            &frames(3, 8, 8),
        )
        .expect_err("dead artifact must be rejected");
        assert!(errors
            .iter()
            .any(|e| e.message.contains("never consumed") && e.location.contains("clean-tub")));
    }

    #[test]
    fn model_graph_errors_surface_as_contract_errors() {
        let mut model = tiny_model(3, 8, 8);
        // Break the dense feature layer's input width.
        if let LayerSpec::Dense { input, .. } = &mut model.layers[2] {
            *input += 1;
        }
        let errors = validate_pipeline(
            &standard_stages(true),
            &model,
            FrameLayout::Bchw,
            &frames(3, 8, 8),
        )
        .expect_err("inconsistent graph must be rejected");
        assert!(errors.iter().any(|e| e.location.contains("model 'tiny'")));
    }

    #[test]
    fn sequence_layouts_slice_the_right_dims() {
        assert_eq!(
            FrameLayout::Btchw.frame_dims(&[1, 5, 3, 8, 8]),
            Some((3, 8, 8))
        );
        assert_eq!(
            FrameLayout::Bcthw.frame_dims(&[1, 3, 5, 8, 8]),
            Some((3, 8, 8))
        );
        assert_eq!(FrameLayout::Bchw.frame_dims(&[1, 5, 3, 8, 8]), None);
    }

    #[test]
    fn canonical_units_follow_the_suffix_convention() {
        assert_eq!(canonical_unit("upload_s"), Some(Unit::Seconds));
        assert_eq!(canonical_unit("tub_bytes"), Some(Unit::Bytes));
        assert_eq!(canonical_unit("goodput_bps"), Some(Unit::BytesPerSec));
        assert_eq!(canonical_unit("planned_epochs"), Some(Unit::Epochs));
        assert_eq!(canonical_unit("kept_records"), Some(Unit::Records));
        assert_eq!(canonical_unit("autonomy"), None);
    }
}
