//! Static model-graph validator.
//!
//! A neutral, dependency-free description of a layer graph
//! ([`LayerSpec`] / [`ModelSpec`]) plus a dataflow pass
//! ([`validate_model`]) that propagates shapes symbolically — no tensor is
//! ever allocated. The same specs carry the shape, parameter and FLOP
//! arithmetic. `autolearn-nn` builds its zoo models *from* a validated
//! plan (`Sequential::from_specs`), describes its live layers back as specs
//! (via `Layer::spec`) and calls the validator before any training step
//! runs; `autolearn-core`'s pipeline validates the plan before even
//! building the model.
//!
//! The pass detects:
//!
//! * incompatible layer chains (rank or dimension mismatches),
//! * zero / degenerate dimensions (e.g. a conv kernel larger than its
//!   input, a pooled dimension collapsing to 0),
//! * dead layers (no-op dropout, linear activation mid-chain, flatten of
//!   an already-flat tensor) — reported as warnings,
//! * parameter-count or feature-width drift against declared totals,
//! * train-only layers (Dropout / BatchNorm) that are misconfigured or
//!   placed where they would corrupt inference (e.g. dropout as the last
//!   layer of a head).

use std::fmt;

/// Symbolic description of a single layer. Mirrors the layer set of
/// `autolearn-nn` and carries exactly the hyper-parameters needed to
/// instantiate a layer and to do its shape, parameter and FLOP arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// Fully connected `[B, input] -> [B, output]`.
    Dense { input: usize, output: usize },
    /// Element-wise non-linearity; `kind` is informational ("relu", ...).
    Activation { kind: String },
    /// Valid-padding 2-D convolution over `[B, C, H, W]`.
    Conv2D {
        in_channels: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
    },
    /// Valid-padding 3-D convolution over `[B, C, T, H, W]`.
    Conv3D {
        in_channels: usize,
        filters: usize,
        kernel_t: usize,
        kernel: usize,
        stride_t: usize,
        stride: usize,
    },
    /// Non-overlapping max pool over the trailing two dims.
    MaxPool2D { size: usize },
    /// Collapse everything after the batch dim.
    Flatten,
    /// Train-only random masking; identity at inference.
    Dropout { rate: f64 },
    /// Per-feature normalisation over `[B, F]`.
    BatchNorm1d { features: usize },
    /// Sequence reduction `[B, T, F] -> [B, hidden]`.
    Lstm { input: usize, hidden: usize },
    /// Apply `inner` independently per time step:
    /// `[B, T, ...] -> [B, T, inner_out...]`.
    TimeDistributed { inner: Box<LayerSpec> },
    /// An ordered sub-chain (how `Sequential` describes itself).
    Chain(Vec<LayerSpec>),
}

impl LayerSpec {
    /// Short human label used in reports and error locations.
    pub fn label(&self) -> String {
        match self {
            LayerSpec::Dense { input, output } => format!("Dense({input}->{output})"),
            LayerSpec::Activation { kind } => format!("Activation({kind})"),
            LayerSpec::Conv2D {
                in_channels,
                filters,
                kernel,
                stride,
            } => format!("Conv2D({in_channels}->{filters}, {kernel}x{kernel}/{stride})"),
            LayerSpec::Conv3D {
                in_channels,
                filters,
                kernel_t,
                kernel,
                stride_t,
                stride,
            } => format!(
                "Conv3D({in_channels}->{filters}, {kernel_t}x{kernel}x{kernel}/{stride_t}x{stride})"
            ),
            LayerSpec::MaxPool2D { size } => format!("MaxPool2D({size}x{size})"),
            LayerSpec::Flatten => "Flatten".to_string(),
            LayerSpec::Dropout { rate } => format!("Dropout({rate})"),
            LayerSpec::BatchNorm1d { features } => format!("BatchNorm1d({features})"),
            LayerSpec::Lstm { input, hidden } => format!("Lstm({input}->{hidden})"),
            LayerSpec::TimeDistributed { inner } => {
                format!("TimeDistributed({})", inner.label())
            }
            LayerSpec::Chain(layers) => format!("Chain[{}]", layers.len()),
        }
    }

    /// Trainable parameter count implied by the spec (matches the live
    /// layers in `autolearn-nn`; drift between the two is itself a bug the
    /// zoo tests catch).
    pub fn param_count(&self) -> u64 {
        match self {
            LayerSpec::Dense { input, output } => (input * output + output) as u64,
            LayerSpec::Conv2D {
                in_channels,
                filters,
                kernel,
                ..
            } => (filters * in_channels * kernel * kernel + filters) as u64,
            LayerSpec::Conv3D {
                in_channels,
                filters,
                kernel_t,
                kernel,
                ..
            } => (filters * in_channels * kernel_t * kernel * kernel + filters) as u64,
            LayerSpec::BatchNorm1d { features } => (2 * features) as u64,
            LayerSpec::Lstm { input, hidden } => {
                (input * 4 * hidden + hidden * 4 * hidden + 4 * hidden) as u64
            }
            LayerSpec::TimeDistributed { inner } => inner.param_count(),
            LayerSpec::Chain(layers) => layers.iter().map(LayerSpec::param_count).sum(),
            LayerSpec::Activation { .. }
            | LayerSpec::MaxPool2D { .. }
            | LayerSpec::Flatten
            | LayerSpec::Dropout { .. } => 0,
        }
    }

    /// Floating-point operations for one *example*'s forward pass through
    /// this layer at `input` (batch dim included, but the count does not
    /// scale with it), or the shape error [`LayerSpec::output_shape`]
    /// reports. A multiply-accumulate is 2 FLOPs; the analytic GPU model in
    /// `autolearn-cloud` charges these.
    pub fn flops(&self, input: &[usize]) -> Result<u64, String> {
        let out = self.output_shape(input)?;
        let per_example = |shape: &[usize]| shape.iter().skip(1).product::<usize>() as u64;
        Ok(match self {
            // Multiply-accumulate plus bias add.
            LayerSpec::Dense { input, output } => (2 * input * output + output) as u64,
            // One transcendental ≈ a handful of flops; count 4 per element.
            LayerSpec::Activation { .. } => 4 * per_example(input),
            // 2 flops per MAC over every output element's receptive field.
            LayerSpec::Conv2D {
                in_channels,
                kernel,
                ..
            } => 2 * (in_channels * kernel * kernel) as u64 * per_example(&out),
            LayerSpec::Conv3D {
                in_channels,
                kernel_t,
                kernel,
                ..
            } => 2 * (in_channels * kernel_t * kernel * kernel) as u64 * per_example(&out),
            // One comparison (pool) or mask multiply (dropout) per element.
            LayerSpec::MaxPool2D { .. } | LayerSpec::Dropout { .. } => per_example(input),
            LayerSpec::Flatten => 0,
            LayerSpec::BatchNorm1d { features } => (8 * features) as u64,
            // Per step: x·W (2·F·4H) + h·U (2·H·4H) + gate math (~10·H).
            LayerSpec::Lstm {
                input: f,
                hidden: h,
            } => {
                let (t, f, h) = (input[1] as u64, *f as u64, *h as u64);
                t * (2 * f * 4 * h + 2 * h * 4 * h + 10 * h)
            }
            LayerSpec::TimeDistributed { inner } => {
                let mut merged = vec![input[0] * input[1]];
                merged.extend_from_slice(&input[2..]);
                input[1] as u64 * inner.flops(&merged)?
            }
            LayerSpec::Chain(layers) => chain_flops(layers, input)?.0,
        })
    }

    /// Symbolic shape propagation: the output shape this layer produces
    /// for `input`, or a message describing why the combination is
    /// invalid. Shapes include the batch dimension at index 0.
    pub fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>, String> {
        match self {
            LayerSpec::Dense {
                input: f_in,
                output,
            } => {
                let got = rank2_features(input, "Dense")?;
                if got != *f_in {
                    return Err(format!("Dense expects {f_in} input features, got {got}"));
                }
                Ok(vec![input[0], *output])
            }
            LayerSpec::Activation { .. } | LayerSpec::Dropout { .. } => Ok(input.to_vec()),
            LayerSpec::BatchNorm1d { features } => {
                let got = rank2_features(input, "BatchNorm1d")?;
                if got != *features {
                    return Err(format!(
                        "BatchNorm1d normalises {features} features, got {got}"
                    ));
                }
                Ok(input.to_vec())
            }
            LayerSpec::Conv2D {
                in_channels,
                filters,
                kernel,
                stride,
            } => {
                if input.len() != 4 {
                    return Err(format!(
                        "Conv2D expects rank-4 [B, C, H, W], got rank-{} {input:?}",
                        input.len()
                    ));
                }
                if input[1] != *in_channels {
                    return Err(format!(
                        "Conv2D expects {in_channels} input channels, got {}",
                        input[1]
                    ));
                }
                let oh = conv_dim(input[2], *kernel, *stride, "height")?;
                let ow = conv_dim(input[3], *kernel, *stride, "width")?;
                Ok(vec![input[0], *filters, oh, ow])
            }
            LayerSpec::Conv3D {
                in_channels,
                filters,
                kernel_t,
                kernel,
                stride_t,
                stride,
            } => {
                if input.len() != 5 {
                    return Err(format!(
                        "Conv3D expects rank-5 [B, C, T, H, W], got rank-{} {input:?}",
                        input.len()
                    ));
                }
                if input[1] != *in_channels {
                    return Err(format!(
                        "Conv3D expects {in_channels} input channels, got {}",
                        input[1]
                    ));
                }
                let ot = conv_dim(input[2], *kernel_t, *stride_t, "time")?;
                let oh = conv_dim(input[3], *kernel, *stride, "height")?;
                let ow = conv_dim(input[4], *kernel, *stride, "width")?;
                Ok(vec![input[0], *filters, ot, oh, ow])
            }
            LayerSpec::MaxPool2D { size } => {
                if input.len() != 4 {
                    return Err(format!(
                        "MaxPool2D expects rank-4 [B, C, H, W], got rank-{} {input:?}",
                        input.len()
                    ));
                }
                let (oh, ow) = (input[2] / size, input[3] / size);
                if oh == 0 || ow == 0 {
                    return Err(format!(
                        "MaxPool2D({size}) collapses {}x{} input to a zero dim",
                        input[2], input[3]
                    ));
                }
                Ok(vec![input[0], input[1], oh, ow])
            }
            LayerSpec::Flatten => {
                if input.len() < 2 {
                    return Err(format!("Flatten expects rank >= 2, got {input:?}"));
                }
                Ok(vec![input[0], input[1..].iter().product()])
            }
            LayerSpec::Lstm {
                input: f_in,
                hidden,
            } => {
                if input.len() != 3 {
                    return Err(format!(
                        "Lstm expects rank-3 [B, T, F], got rank-{} {input:?}",
                        input.len()
                    ));
                }
                if input[2] != *f_in {
                    return Err(format!(
                        "Lstm expects {f_in} input features, got {}",
                        input[2]
                    ));
                }
                Ok(vec![input[0], *hidden])
            }
            LayerSpec::TimeDistributed { inner } => {
                if input.len() < 3 {
                    return Err(format!(
                        "TimeDistributed expects rank >= 3 [B, T, ...], got {input:?}"
                    ));
                }
                let mut merged = vec![input[0] * input[1]];
                merged.extend_from_slice(&input[2..]);
                let inner_out = inner.output_shape(&merged)?;
                let mut out = vec![input[0], input[1]];
                out.extend_from_slice(&inner_out[1..]);
                Ok(out)
            }
            LayerSpec::Chain(layers) => {
                let mut shape = input.to_vec();
                for layer in layers {
                    shape = layer.output_shape(&shape)?;
                }
                Ok(shape)
            }
        }
    }
}

/// FLOPs and output shape of a chain of layers fed `input`.
fn chain_flops(layers: &[LayerSpec], input: &[usize]) -> Result<(u64, Vec<usize>), String> {
    let mut shape = input.to_vec();
    let mut total = 0;
    for layer in layers {
        total += layer.flops(&shape)?;
        shape = layer.output_shape(&shape)?;
    }
    Ok((total, shape))
}

fn rank2_features(input: &[usize], who: &str) -> Result<usize, String> {
    if input.len() != 2 {
        return Err(format!(
            "{who} expects rank-2 [B, F], got rank-{} {input:?}",
            input.len()
        ));
    }
    Ok(input[1])
}

fn conv_dim(dim: usize, kernel: usize, stride: usize, axis: &str) -> Result<usize, String> {
    if kernel == 0 || stride == 0 {
        return Err(format!("kernel/stride must be >= 1 on {axis}"));
    }
    if dim < kernel {
        return Err(format!("{axis} {dim} is smaller than kernel {kernel}"));
    }
    Ok((dim - kernel) / stride + 1)
}

/// Symbolic description of a whole model: a trunk feeding one or more
/// heads, with an optional auxiliary feature vector concatenated between
/// trunk and merge (how the Memory model injects control history).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    pub name: String,
    /// Trunk input shape, batch dim included (use batch = 1).
    pub input: Vec<usize>,
    /// The trunk chain.
    pub layers: Vec<LayerSpec>,
    /// Width of an auxiliary vector concatenated to the trunk output
    /// features before the merge chain runs (`None` = no concat).
    pub aux_width: Option<usize>,
    /// Post-concat chain (empty when the trunk output feeds heads as-is).
    pub merge: Vec<LayerSpec>,
    /// Named output heads, each fed the final feature vector.
    pub heads: Vec<(String, Vec<LayerSpec>)>,
    /// Total trainable parameters the zoo declares for this architecture,
    /// if it declares one. Drift between this and the spec-derived count
    /// is an error.
    pub declared_params: Option<u64>,
    /// Feature width the zoo says the trunk(+merge) produces.
    pub declared_feature_dim: Option<usize>,
}

impl ModelSpec {
    /// Total trainable parameters implied by the spec (trunk + merge +
    /// heads).
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(LayerSpec::param_count).sum::<u64>()
            + self.merge.iter().map(LayerSpec::param_count).sum::<u64>()
            + self
                .heads
                .iter()
                .flat_map(|(_, ls)| ls.iter())
                .map(LayerSpec::param_count)
                .sum::<u64>()
    }

    /// FLOPs for one single-example inference: trunk, merge (fed the trunk
    /// features plus the auxiliary vector) and every head, or the first
    /// shape error met on the way.
    pub fn total_flops(&self) -> Result<u64, String> {
        let (trunk, mut feat) = chain_flops(&self.layers, &self.input)?;
        if let Some(aux) = self.aux_width {
            match feat.as_mut_slice() {
                [_, width] => *width += aux,
                _ => return Err(format!("trunk must end in [B, F] to concat, got {feat:?}")),
            }
        }
        let (merge, feat) = chain_flops(&self.merge, &feat)?;
        let mut total = trunk + merge;
        for (_, head) in &self.heads {
            total += chain_flops(head, &feat)?.0;
        }
        Ok(total)
    }
}

/// One defect found by [`validate_model`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphError {
    /// Where in the graph: `trunk[2] Conv2D(...)`, `head steering[0] ...`,
    /// or `model` for whole-graph defects.
    pub location: String,
    pub message: String,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.message)
    }
}

/// Render a batch of graph errors as a readable multi-line block.
pub fn format_errors(errors: &[GraphError]) -> String {
    let mut out = String::new();
    for e in errors {
        out.push_str("  - ");
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Per-layer record in a successful validation.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    pub location: String,
    pub layer: String,
    pub output_shape: Vec<usize>,
    pub params: u64,
}

/// Outcome of a successful [`validate_model`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphReport {
    pub name: String,
    pub input: Vec<usize>,
    pub steps: Vec<StepReport>,
    /// Width of the feature vector the heads consume.
    pub feature_dim: usize,
    pub total_params: u64,
    /// Non-fatal defects: dead layers, suspicious placements.
    pub warnings: Vec<String>,
}

impl GraphReport {
    /// Human-readable summary table (one line per layer).
    pub fn render(&self) -> String {
        let mut out = format!("model {} input {:?}\n", self.name, self.input);
        for s in &self.steps {
            out.push_str(&format!(
                "  {:<24} {:<34} out {:?}  params {}\n",
                s.location, s.layer, s.output_shape, s.params
            ));
        }
        out.push_str(&format!(
            "  feature_dim {}  total_params {}\n",
            self.feature_dim, self.total_params
        ));
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        out
    }
}

/// Walk one chain, accumulating step reports / errors. Returns the final
/// shape, or `None` if propagation had to stop at a broken layer.
fn propagate_chain(
    prefix: &str,
    mut shape: Vec<usize>,
    layers: &[LayerSpec],
    steps: &mut Vec<StepReport>,
    warnings: &mut Vec<String>,
    errors: &mut Vec<GraphError>,
) -> Option<Vec<usize>> {
    for (i, layer) in layers.iter().enumerate() {
        let location = format!("{prefix}[{i}]");
        check_layer_config(&location, layer, errors);
        dead_layer_warnings(&location, layer, &shape, warnings);
        match layer.output_shape(&shape) {
            Ok(out) => {
                if let Some(zero) = out.iter().position(|&d| d == 0) {
                    errors.push(GraphError {
                        location: format!("{location} {}", layer.label()),
                        message: format!("degenerate output: dim {zero} of {out:?} is zero"),
                    });
                    return None;
                }
                steps.push(StepReport {
                    location: location.clone(),
                    layer: layer.label(),
                    output_shape: out.clone(),
                    params: layer.param_count(),
                });
                shape = out;
            }
            Err(message) => {
                errors.push(GraphError {
                    location: format!("{location} {}", layer.label()),
                    message,
                });
                return None;
            }
        }
    }
    Some(shape)
}

/// Configuration checks that do not depend on the input shape.
fn check_layer_config(location: &str, layer: &LayerSpec, errors: &mut Vec<GraphError>) {
    match layer {
        LayerSpec::Dropout { rate } => {
            if !(0.0..1.0).contains(rate) {
                errors.push(GraphError {
                    location: format!("{location} {}", layer.label()),
                    message: format!(
                        "dropout rate {rate} outside [0, 1): a rate >= 1 zeroes every \
                         activation and the layer cannot be disabled at inference"
                    ),
                });
            }
        }
        LayerSpec::Dense { input, output } => {
            if *input == 0 || *output == 0 {
                errors.push(GraphError {
                    location: format!("{location} {}", layer.label()),
                    message: "dense layer with a zero-width side".to_string(),
                });
            }
        }
        LayerSpec::Lstm { input, hidden } => {
            if *input == 0 || *hidden == 0 {
                errors.push(GraphError {
                    location: format!("{location} {}", layer.label()),
                    message: "lstm with a zero-width side".to_string(),
                });
            }
        }
        LayerSpec::BatchNorm1d { features } => {
            if *features == 0 {
                errors.push(GraphError {
                    location: format!("{location} {}", layer.label()),
                    message: "batchnorm over zero features".to_string(),
                });
            }
        }
        LayerSpec::TimeDistributed { inner } => {
            check_layer_config(location, inner, errors);
        }
        LayerSpec::Chain(layers) => {
            for (i, l) in layers.iter().enumerate() {
                check_layer_config(&format!("{location}.{i}"), l, errors);
            }
        }
        _ => {}
    }
}

/// Dead-layer detection: layers that provably do nothing in this position.
fn dead_layer_warnings(
    location: &str,
    layer: &LayerSpec,
    input: &[usize],
    warnings: &mut Vec<String>,
) {
    match layer {
        LayerSpec::Dropout { rate } if *rate == 0.0 => {
            warnings.push(format!("{location}: Dropout(0) is a no-op (dead layer)"));
        }
        LayerSpec::Activation { kind } if kind == "linear" => {
            warnings.push(format!(
                "{location}: linear activation is a no-op (dead layer)"
            ));
        }
        LayerSpec::Flatten if input.len() == 2 => {
            warnings.push(format!(
                "{location}: Flatten of already-flat {input:?} is a no-op (dead layer)"
            ));
        }
        _ => {}
    }
}

/// Train-only layers must not sit at a head output: dropout there injects
/// train/inference skew directly into the control signal, and batchnorm
/// at the output re-centres the prediction.
fn head_tail_check(head: &str, layers: &[LayerSpec], errors: &mut Vec<GraphError>) {
    if let Some(last) = layers.last() {
        match last {
            LayerSpec::Dropout { .. } | LayerSpec::BatchNorm1d { .. } => {
                errors.push(GraphError {
                    location: format!("head {head}"),
                    message: format!(
                        "train-only layer {} is the final layer of a head output",
                        last.label()
                    ),
                });
            }
            _ => {}
        }
    }
}

/// Validate a model graph symbolically. On success returns a
/// [`GraphReport`] with per-layer shapes, parameter totals and any
/// warnings; on failure returns every [`GraphError`] that could be
/// established (shape propagation stops at the first broken layer of a
/// chain, but independent chains are still checked).
pub fn validate_model(spec: &ModelSpec) -> Result<GraphReport, Vec<GraphError>> {
    let mut steps = Vec::new();
    let mut warnings = Vec::new();
    let mut errors = Vec::new();

    if spec.input.iter().any(|&d| d == 0) {
        errors.push(GraphError {
            location: "model".to_string(),
            message: format!("input shape {:?} has a zero dimension", spec.input),
        });
    }
    if spec.heads.is_empty() {
        errors.push(GraphError {
            location: "model".to_string(),
            message: "model has no output heads: the whole graph is dead".to_string(),
        });
    }

    // Trunk, then optional concat + merge.
    let trunk_out = if spec.input.iter().any(|&d| d == 0) {
        None
    } else {
        propagate_chain(
            "trunk",
            spec.input.clone(),
            &spec.layers,
            &mut steps,
            &mut warnings,
            &mut errors,
        )
    };

    let feature_dim = trunk_out.and_then(|shape| {
        if shape.len() != 2 {
            errors.push(GraphError {
                location: "trunk".to_string(),
                message: format!(
                    "trunk must end in a rank-2 feature map [B, F] to feed heads, got {shape:?}"
                ),
            });
            return None;
        }
        let mut feat = shape[1];
        if let Some(aux) = spec.aux_width {
            if aux == 0 {
                errors.push(GraphError {
                    location: "merge".to_string(),
                    message: "auxiliary input declared with zero width".to_string(),
                });
            }
            feat += aux;
        }
        let merged = propagate_chain(
            "merge",
            vec![shape[0], feat],
            &spec.merge,
            &mut steps,
            &mut warnings,
            &mut errors,
        )?;
        if merged.len() != 2 {
            errors.push(GraphError {
                location: "merge".to_string(),
                message: format!("merge must produce [B, F], got {merged:?}"),
            });
            return None;
        }
        Some(merged[1])
    });

    if let (Some(found), Some(declared)) = (feature_dim, spec.declared_feature_dim) {
        if found != declared {
            errors.push(GraphError {
                location: "model".to_string(),
                message: format!(
                    "feature-dim drift: graph produces {found}, zoo declares {declared}"
                ),
            });
        }
    }

    // Heads are validated independently so one broken head does not mask
    // another. When the trunk already failed, fall back to the declared
    // feature dim so head-internal defects still surface.
    let head_input_dim = feature_dim.or(spec.declared_feature_dim);
    for (name, layers) in &spec.heads {
        head_tail_check(name, layers, &mut errors);
        if let Some(dim) = head_input_dim {
            if let Some(out) = propagate_chain(
                &format!("head {name}"),
                vec![spec.input.first().copied().unwrap_or(1), dim],
                layers,
                &mut steps,
                &mut warnings,
                &mut errors,
            ) {
                if out.len() != 2 || out[1] == 0 {
                    errors.push(GraphError {
                        location: format!("head {name}"),
                        message: format!("head must produce [B, outputs>=1], got {out:?}"),
                    });
                }
            }
        }
    }

    let total_params = spec.total_params();

    if let Some(declared) = spec.declared_params {
        if declared != total_params {
            errors.push(GraphError {
                location: "model".to_string(),
                message: format!(
                    "parameter-count drift: graph has {total_params} trainable parameters, \
                     zoo declares {declared}"
                ),
            });
        }
    }

    if errors.is_empty() {
        Ok(GraphReport {
            name: spec.name.clone(),
            input: spec.input.clone(),
            steps,
            feature_dim: feature_dim.unwrap_or(0),
            total_params,
            warnings,
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(i: usize, o: usize) -> LayerSpec {
        LayerSpec::Dense {
            input: i,
            output: o,
        }
    }

    fn simple_spec(layers: Vec<LayerSpec>, heads: Vec<(String, Vec<LayerSpec>)>) -> ModelSpec {
        ModelSpec {
            name: "test".to_string(),
            input: vec![1, 8],
            layers,
            aux_width: None,
            merge: Vec::new(),
            heads,
            declared_params: None,
            declared_feature_dim: None,
        }
    }

    #[test]
    fn valid_dense_chain_passes() {
        let spec = simple_spec(
            vec![
                dense(8, 16),
                LayerSpec::Activation {
                    kind: "relu".into(),
                },
            ],
            vec![("out".to_string(), vec![dense(16, 1)])],
        );
        let report = validate_model(&spec).expect("valid graph");
        assert_eq!(report.feature_dim, 16);
        assert_eq!(report.total_params, (8 * 16 + 16 + 16 + 1) as u64);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn dense_dim_mismatch_is_rejected() {
        let spec = simple_spec(
            vec![dense(8, 16), dense(32, 4)],
            vec![("out".to_string(), vec![dense(4, 1)])],
        );
        let errors = validate_model(&spec).unwrap_err();
        assert!(
            errors.iter().any(|e| e.location.contains("trunk[1]")),
            "expected trunk[1] mismatch, got {errors:?}"
        );
    }

    #[test]
    fn conv_kernel_larger_than_input_is_degenerate() {
        let spec = ModelSpec {
            name: "tiny".to_string(),
            input: vec![1, 1, 4, 4],
            layers: vec![
                LayerSpec::Conv2D {
                    in_channels: 1,
                    filters: 8,
                    kernel: 5,
                    stride: 2,
                },
                LayerSpec::Flatten,
            ],
            aux_width: None,
            merge: Vec::new(),
            heads: vec![("s".to_string(), vec![dense(8, 1)])],
            declared_params: None,
            declared_feature_dim: None,
        };
        let errors = validate_model(&spec).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| e.message.contains("smaller than kernel")));
    }

    #[test]
    fn zero_dims_and_missing_heads_are_errors() {
        let spec = ModelSpec {
            name: "dead".to_string(),
            input: vec![1, 0],
            layers: Vec::new(),
            aux_width: None,
            merge: Vec::new(),
            heads: Vec::new(),
            declared_params: None,
            declared_feature_dim: None,
        };
        let errors = validate_model(&spec).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("zero dimension")));
        assert!(errors.iter().any(|e| e.message.contains("no output heads")));
    }

    #[test]
    fn dead_layers_warn_but_pass() {
        let spec = simple_spec(
            vec![
                dense(8, 8),
                LayerSpec::Dropout { rate: 0.0 },
                LayerSpec::Activation {
                    kind: "linear".into(),
                },
                LayerSpec::Flatten,
            ],
            vec![("out".to_string(), vec![dense(8, 1)])],
        );
        let report = validate_model(&spec).expect("dead layers are warnings, not errors");
        assert_eq!(report.warnings.len(), 3, "{:?}", report.warnings);
    }

    #[test]
    fn dropout_rate_out_of_range_is_error() {
        let spec = simple_spec(
            vec![LayerSpec::Dropout { rate: 1.0 }],
            vec![("out".to_string(), vec![dense(8, 1)])],
        );
        let errors = validate_model(&spec).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("outside [0, 1)")));
    }

    #[test]
    fn train_only_layer_at_head_tail_is_error() {
        let spec = simple_spec(
            vec![dense(8, 8)],
            vec![(
                "steering".to_string(),
                vec![dense(8, 1), LayerSpec::Dropout { rate: 0.5 }],
            )],
        );
        let errors = validate_model(&spec).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| e.message.contains("train-only layer")));
    }

    #[test]
    fn param_drift_is_detected() {
        let mut spec = simple_spec(
            vec![dense(8, 16)],
            vec![("out".to_string(), vec![dense(16, 1)])],
        );
        spec.declared_params = Some(999);
        let errors = validate_model(&spec).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| e.message.contains("parameter-count drift")));
    }

    #[test]
    fn memory_style_concat_and_merge() {
        let mut spec = simple_spec(
            vec![dense(8, 64)],
            vec![("out".to_string(), vec![dense(32, 1)])],
        );
        spec.aux_width = Some(8);
        spec.merge = vec![dense(72, 32)];
        spec.declared_feature_dim = Some(32);
        let report = validate_model(&spec).expect("concat graph valid");
        assert_eq!(report.feature_dim, 32);
    }

    #[test]
    fn total_flops_walks_trunk_concat_merge_and_heads() {
        let mut spec = simple_spec(
            vec![
                dense(8, 64),
                LayerSpec::Activation {
                    kind: "relu".into(),
                },
            ],
            vec![
                ("s".to_string(), vec![dense(32, 1)]),
                ("t".to_string(), vec![dense(32, 2)]),
            ],
        );
        spec.aux_width = Some(8);
        spec.merge = vec![dense(72, 32)];
        // Trunk dense + relu, merge dense, then the two heads.
        let expected =
            (2 * 8 * 64 + 64) + 4 * 64 + (2 * 72 * 32 + 32) + (2 * 32 + 1) + (2 * 32 * 2 + 2);
        assert_eq!(spec.total_flops(), Ok(expected));
        // Without the concat the merge's Dense(72->32) cannot take 64.
        spec.aux_width = None;
        assert!(spec.total_flops().is_err());
    }

    #[test]
    fn layer_flops_follow_output_shapes() {
        let conv = LayerSpec::Conv2D {
            in_channels: 2,
            filters: 4,
            kernel: 3,
            stride: 2,
        };
        // 4 filters x 3x3 output, 2 * (2*3*3) flops each.
        assert_eq!(conv.flops(&[5, 2, 7, 7]), Ok(4 * 9 * 2 * 18));
        assert!(conv
            .flops(&[1, 2, 2, 2])
            .unwrap_err()
            .contains("smaller than kernel"));
        let lstm = LayerSpec::Lstm {
            input: 4,
            hidden: 3,
        };
        assert_eq!(
            lstm.flops(&[1, 5, 4]),
            Ok(5 * (2 * 4 * 12 + 2 * 3 * 12 + 30))
        );
        let td = LayerSpec::TimeDistributed {
            inner: Box::new(LayerSpec::Chain(vec![LayerSpec::Flatten, dense(6, 2)])),
        };
        assert_eq!(td.flops(&[1, 3, 2, 3]), Ok(3 * (2 * 6 * 2 + 2)));
        for free in [LayerSpec::Flatten, LayerSpec::Chain(Vec::new())] {
            assert_eq!(free.flops(&[1, 4, 4]), Ok(0));
        }
    }

    #[test]
    fn time_distributed_and_lstm_propagate() {
        let spec = ModelSpec {
            name: "rnn".to_string(),
            input: vec![1, 3, 1, 12, 12],
            layers: vec![
                LayerSpec::TimeDistributed {
                    inner: Box::new(LayerSpec::Chain(vec![
                        LayerSpec::Conv2D {
                            in_channels: 1,
                            filters: 4,
                            kernel: 3,
                            stride: 2,
                        },
                        LayerSpec::Flatten,
                        dense(4 * 5 * 5, 16),
                    ])),
                },
                LayerSpec::Lstm {
                    input: 16,
                    hidden: 8,
                },
            ],
            aux_width: None,
            merge: Vec::new(),
            heads: vec![("s".to_string(), vec![dense(8, 1)])],
            declared_params: None,
            declared_feature_dim: Some(8),
        };
        let report = validate_model(&spec).expect("rnn graph valid");
        assert_eq!(report.feature_dim, 8);
    }
}
