//! The end-to-end AutoLearn pipeline (Fig. 1), fallible edition.
//!
//! One call runs what a student does over an afternoon: collect data on the
//! car, clean it, reserve a Chameleon GPU node, deploy the CUDA image,
//! rsync the tub up, train, store the model in the object store, pull it
//! onto the car's container, and drive autonomous evaluation laps — with
//! every stage's simulated wall-clock accounted.
//!
//! Every stage that touches the continuum is fallible: [`Pipeline::run`]
//! consults a [`FaultPlan`] at each network transfer, lease launch and
//! container start, retries failed attempts under a [`RetryPolicy`]
//! (exponential backoff charged to simulated time), and degrades rather
//! than dies where it can — falling back to a slower GPU when capacity is
//! exhausted, re-sending only the rsync delta after a mid-transfer fault,
//! resuming training from the last epoch boundary after a preemption.
//! Completed stages are checkpointed and never re-run; every attempt and
//! every injected fault lands in the report's [`RunLog`].
//!
//! Telemetry: the run emits through an [`Obs`] — a root `pipeline` span,
//! one child span per stage, one `attempt` span per try at a fallible
//! stage (fault events nested inside), `checkpoint` events at stage
//! completions, and stage-latency/retry/fault metrics. The [`RunLog`] is
//! no longer separate bookkeeping: it is *reconstructed from the trace*
//! by [`RunLog::from_trace`], so the trace is the single source of truth.
//! [`Pipeline::run_observed`] runs against a caller-owned [`Obs`] (for
//! export); [`Pipeline::run_chaos`] keeps its old signature and observes
//! into a private one.

use crate::collect::{collect_session, CollectConfig, CollectionPath};
use crate::dataset::{records_to_dataset, tub_bytes_estimate};
use crate::modelpilot::ModelPilot;
use autolearn_cloud::chaos::{launch_lease_observed, LaunchError, LAUNCH_OVERHEAD_S};
use autolearn_cloud::hardware::{ComputeDevice, GpuKind, Site};
use autolearn_cloud::perf::{training_time, TrainingCostModel};
use autolearn_cloud::provision::ProvisioningPlan;
use autolearn_cloud::reservation::{ReservationError, ReservationSystem};
use autolearn_edge::container::{ContainerRuntime, ImageSpec};
use autolearn_net::{transfer_time, Path, ResumableTransfer, TransferSpec};
use autolearn_nn::models::{
    prepare_dataset, CarModel, DonkeyModel, InputSpec, ModelConfig, ModelKind,
};
use autolearn_nn::{
    format_contract_errors, format_errors, standard_stages, validate_pipeline, ContractError,
    ContractReport, DType, Dataset, FrameContract, GraphError, TrainConfig, TrainReport, Trainer,
};
use autolearn_obs::{attr, AttrValue, Obs, SpanId, Trace};
use autolearn_sim::{CarConfig, DriveConfig, Simulation};
use autolearn_track::Track;
use autolearn_tub::{CleanConfig, Record, TubCleaner};
use autolearn_util::fault::{FaultPlan, InjectedFault};
use autolearn_util::{derive_seed, Bytes, Epochs, RetryPolicy, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub collection: CollectConfig,
    pub model_kind: ModelKind,
    pub model: ModelConfig,
    pub train: TrainConfig,
    /// GPU node type to reserve for training.
    pub gpu: GpuKind,
    /// Run tubclean before training.
    pub clean: bool,
    /// Autonomous evaluation laps.
    pub eval_laps: usize,
    pub eval_max_duration_s: f64,
}

impl PipelineConfig {
    /// The module's default lesson: simulator data, linear model, V100.
    pub fn lesson_default(seed: u64) -> PipelineConfig {
        PipelineConfig {
            collection: CollectConfig::new(CollectionPath::Simulator, 120.0, seed),
            model_kind: ModelKind::Linear,
            model: ModelConfig {
                height: 30,
                width: 40,
                channels: 1,
                seed,
                ..Default::default()
            },
            train: TrainConfig {
                epochs: 10,
                batch_size: 32,
                seed,
                ..Default::default()
            },
            gpu: GpuKind::V100,
            clean: true,
            eval_laps: 3,
            eval_max_duration_s: 180.0,
        }
    }
}

/// Simulated wall-clock spent in one stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageTiming {
    pub stage: String,
    pub duration: SimDuration,
}

/// One attempt at a fallible stage, as recorded in the [`RunLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    pub stage: String,
    /// 1-based attempt number within the stage.
    pub attempt: u32,
    /// `"ok"`, or the failure description.
    pub outcome: String,
    /// Simulated time this attempt consumed (work + injected penalties).
    pub charged: SimDuration,
    /// Backoff charged after this attempt (zero on success or final try).
    pub backoff: SimDuration,
}

/// The complete recovery history of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunLog {
    /// Every attempt at every fallible stage, in execution order.
    pub attempts: Vec<AttemptRecord>,
    /// Every fault the plan injected, in injection order.
    pub faults: Vec<InjectedFault>,
    /// Stages that completed, in order — the checkpoint trail: a stage in
    /// this list was never re-entered.
    pub completed_stages: Vec<String>,
    /// The GPU that actually trained the model (may differ from the
    /// configured one after a capacity fallback).
    pub gpu_used: String,
}

impl RunLog {
    /// Attempts that failed (retries and terminal failures).
    pub fn failed_attempts(&self) -> usize {
        self.attempts.iter().filter(|a| a.outcome != "ok").count()
    }

    /// Reconstruct the run log from the trace — the log *is* a view over
    /// the telemetry, not parallel bookkeeping. `attempt` spans carrying
    /// an `outcome` attribute become [`AttemptRecord`]s (the typed
    /// `charged_s`/`backoff_s` attributes round-trip the durations
    /// exactly), `checkpoint` events rebuild the completed-stage trail,
    /// and the last `gpu-selected` event names the GPU that trained.
    /// Faults come from the fault plan's own log, which stays the
    /// authority on what was injected.
    pub fn from_trace(trace: &Trace, faults: Vec<InjectedFault>) -> RunLog {
        let mut log = RunLog {
            faults,
            ..RunLog::default()
        };
        for span in trace.spans_named("attempt") {
            let stage = attr(&span.attrs, "stage").and_then(|v| v.as_str());
            let outcome = attr(&span.attrs, "outcome").and_then(|v| v.as_str());
            let (Some(stage), Some(outcome)) = (stage, outcome) else {
                // Fatal attempts never carried an outcome and never made
                // the log.
                continue;
            };
            let num = |key: &str| {
                attr(&span.attrs, key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            };
            let attempt = attr(&span.attrs, "attempt")
                .and_then(|v| v.as_int())
                .and_then(|v| u32::try_from(v).ok())
                .unwrap_or(0);
            log.attempts.push(AttemptRecord {
                stage: stage.to_string(),
                attempt,
                outcome: outcome.to_string(),
                charged: SimDuration::from_secs(num("charged_s")),
                backoff: SimDuration::from_secs(num("backoff_s")),
            });
        }
        for event in trace.events_named("checkpoint") {
            if let Some(stage) = attr(&event.attrs, "stage").and_then(|v| v.as_str()) {
                log.completed_stages.push(stage.to_string());
            }
        }
        if let Some(gpu) = trace
            .events_named("gpu-selected")
            .last()
            .and_then(|e| attr(&e.attrs, "gpu"))
            .and_then(|v| v.as_str())
        {
            log.gpu_used = gpu.to_string();
        }
        log
    }
}

/// Why a pipeline run could not complete.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// The model plan failed static validation; nothing ran.
    ModelRejected(Vec<GraphError>),
    /// The pipeline contract failed static validation (stage ordering,
    /// artifact flow, units or the tub→model handoff); nothing ran.
    ContractViolated(Vec<ContractError>),
    /// The reservation system refused the request for a non-transient
    /// reason (unknown node type, inverted window, genuine capacity).
    Reservation(ReservationError),
    /// A stage exhausted its retry budget.
    StageFailed {
        stage: String,
        attempts: u32,
        last_error: String,
    },
    /// A stage blew through its per-stage deadline.
    DeadlineExceeded {
        stage: String,
        elapsed: SimDuration,
        deadline: SimDuration,
    },
}

impl PipelineError {
    /// The stage the run died in, when the error is stage-scoped.
    pub fn stage(&self) -> Option<&str> {
        match self {
            PipelineError::StageFailed { stage, .. }
            | PipelineError::DeadlineExceeded { stage, .. } => Some(stage),
            _ => None,
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::ModelRejected(errs) => {
                write!(f, "model plan rejected:\n{}", format_errors(errs))
            }
            PipelineError::ContractViolated(errs) => {
                write!(
                    f,
                    "pipeline contract violated:\n{}",
                    format_contract_errors(errs)
                )
            }
            PipelineError::Reservation(e) => write!(f, "reservation refused: {e}"),
            PipelineError::StageFailed {
                stage,
                attempts,
                last_error,
            } => write!(
                f,
                "stage '{stage}' failed after {attempts} attempts: {last_error}"
            ),
            PipelineError::DeadlineExceeded {
                stage,
                elapsed,
                deadline,
            } => write!(
                f,
                "stage '{stage}' blew its {deadline} deadline (spent {elapsed})"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Everything the pipeline produces.
pub struct PipelineReport {
    pub stages: Vec<StageTiming>,
    pub records_collected: usize,
    pub records_cleaned: usize,
    pub train_report: TrainReport,
    /// Evaluation metrics from the autonomous laps.
    pub eval_laps: usize,
    pub eval_autonomy: f64,
    pub eval_mean_speed: f64,
    pub eval_crashes: usize,
    pub model: CarModel,
    /// The attempt/fault/checkpoint history of the run.
    pub run_log: RunLog,
}

impl PipelineReport {
    pub fn total_time(&self) -> SimDuration {
        self.stages
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration)
    }

    pub fn stage(&self, name: &str) -> Option<SimDuration> {
        self.stages
            .iter()
            .find(|s| s.stage == name)
            .map(|s| s.duration)
    }
}

/// What one attempt of a fallible stage reported back to the retry driver.
enum StageFault {
    /// Worth another try: the attempt died for a transient reason, after
    /// consuming `charged` simulated time.
    Retryable { why: String, charged: SimDuration },
    /// Not worth retrying; abort the run with this error.
    Fatal(PipelineError),
}

/// Drive one fallible stage under `policy`: run attempts until one succeeds,
/// the attempt cap is hit, or the stage deadline is blown, charging
/// exponential backoff (with jitter derived from `seed`) between attempts.
/// Every try becomes an `attempt` span on `obs` — typed attributes carry
/// the stage, the 1-based attempt number, the outcome, and the exact
/// charged/backoff durations, which is what [`RunLog::from_trace`] reads
/// back. The attempt body gets the observer too, so substrate telemetry
/// (fault events, transfer counters) nests inside the attempt span.
/// Returns the stage's value plus the total simulated time consumed.
fn retry_stage<T>(
    stage: &str,
    policy: &RetryPolicy,
    seed: u64,
    obs: &mut Obs,
    mut attempt_fn: impl FnMut(u32, &mut Obs) -> Result<(T, SimDuration), StageFault>,
) -> Result<(T, SimDuration), PipelineError> {
    let mut elapsed = SimDuration::ZERO;
    let mut attempt = 1u32;
    let mut last_error = "never attempted".to_string();
    loop {
        if !policy.allows(attempt, elapsed) {
            return Err(if policy.deadline_exceeded(elapsed) {
                PipelineError::DeadlineExceeded {
                    stage: stage.to_string(),
                    elapsed,
                    deadline: policy.deadline.unwrap_or(SimDuration::ZERO),
                }
            } else {
                PipelineError::StageFailed {
                    stage: stage.to_string(),
                    attempts: attempt.saturating_sub(1),
                    last_error,
                }
            });
        }
        let span = open_attempt(obs, stage, attempt);
        match attempt_fn(attempt, obs) {
            Ok((value, charged)) => {
                elapsed += charged;
                close_attempt(obs, span, "ok", charged, SimDuration::ZERO);
                return Ok((value, elapsed));
            }
            Err(StageFault::Fatal(e)) => {
                // Fatal attempts abort the run and never made the old log;
                // leaving the span without an outcome keeps the view
                // identical.
                obs.end_span(span);
                return Err(e);
            }
            Err(StageFault::Retryable { why, charged }) => {
                elapsed += charged;
                // Only charge backoff when another attempt is coming.
                let backoff = if policy.allows(attempt + 1, elapsed) {
                    policy.backoff(attempt, seed)
                } else {
                    SimDuration::ZERO
                };
                elapsed += backoff;
                close_attempt(obs, span, &why, charged, backoff);
                last_error = why;
                attempt += 1;
            }
        }
    }
}

/// Open try `attempt` of `stage` as the `attempt` span [`RunLog::from_trace`] reads.
fn open_attempt(obs: &mut Obs, stage: &str, attempt: u32) -> SpanId {
    let span = obs.begin_span("attempt");
    obs.span_attr(span, "stage", AttrValue::Str(stage.to_string()));
    obs.span_attr(span, "attempt", AttrValue::Int(i64::from(attempt)));
    obs.counter_add("pipeline.attempts", 1);
    span
}

/// Close an attempt span covering `charged`, then advance past `backoff`, the
/// gap before the next attempt. An `outcome` other than `"ok"` is a retry.
fn close_attempt(
    obs: &mut Obs,
    span: SpanId,
    outcome: &str,
    charged: SimDuration,
    backoff: SimDuration,
) {
    if outcome != "ok" {
        obs.counter_add("pipeline.retries", 1);
    }
    obs.span_attr(span, "outcome", AttrValue::Str(outcome.to_string()));
    obs.span_attr(span, "charged_s", AttrValue::F64(charged.as_secs()));
    obs.span_attr(span, "backoff_s", AttrValue::F64(backoff.as_secs()));
    obs.advance(charged);
    obs.end_span(span);
    obs.advance(backoff);
}

/// The cleaned records as a dataset in the model's input layout, or a
/// failed train stage when fewer than the two examples [`Trainer::fit`]
/// splits into train and validation sets would remain.
fn training_set(
    records: &[Record],
    cfg: &ModelConfig,
    spec: InputSpec,
) -> Result<Dataset, PipelineError> {
    let frames = records.iter().filter(|r| r.image.is_some()).count();
    let examples = match spec {
        // One example per full window of `t` frames.
        InputSpec::Sequence(t) => (frames + 1).saturating_sub(t),
        InputSpec::Frames | InputSpec::FramesWithHistory(_) => frames,
    };
    if examples < 2 {
        return Err(PipelineError::StageFailed {
            stage: "train".to_string(),
            attempts: 1,
            last_error: format!(
                "{examples} training examples from {frames} framed records after clean; \
                 training needs at least 2"
            ),
        });
    }
    let dataset = records_to_dataset(records, cfg);
    Ok(match spec {
        // A frame model trains on the frame dataset itself, not a copy.
        InputSpec::Frames => dataset,
        InputSpec::Sequence(_) | InputSpec::FramesWithHistory(_) => prepare_dataset(&dataset, spec),
    })
}

/// GPUs to fall back to when `preferred` has no capacity: every kind with
/// strictly lower sustained throughput, best first — degraded runs get
/// *slower*, never faster, so recovery always costs simulated time.
fn fallback_chain(preferred: GpuKind) -> Vec<GpuKind> {
    let eff = |g: GpuKind| g.peak_tflops() * g.sustained_fraction();
    let mut slower: Vec<GpuKind> = [
        GpuKind::A100,
        GpuKind::Mi100,
        GpuKind::V100NvLink,
        GpuKind::V100,
        GpuKind::Rtx6000,
        GpuKind::P100,
        GpuKind::M40,
        GpuKind::K80,
    ]
    .into_iter()
    .filter(|g| eff(*g) < eff(preferred))
    .collect();
    slower.sort_by(|a, b| {
        eff(*b)
            .partial_cmp(&eff(*a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut chain = vec![preferred];
    chain.extend(slower);
    chain
}

/// The pipeline runner.
pub struct Pipeline {
    pub track: Track,
    pub config: PipelineConfig,
}

impl Pipeline {
    pub fn new(track: Track, config: PipelineConfig) -> Pipeline {
        Pipeline { track, config }
    }

    /// Statically validate the full pipeline contract before anything
    /// runs: the configured model graph (shape propagation over the zoo
    /// *plan* — no tensors allocated, no model built), the tub→model frame
    /// handoff, and the stage chain's artifact flow, ordering and units.
    /// [`Pipeline::run`] calls this first and surfaces failures as
    /// [`PipelineError::ContractViolated`].
    pub fn preflight(&self) -> Result<ContractReport, Vec<ContractError>> {
        let cfg = &self.config;
        let spec = CarModel::plan(cfg.model_kind, &cfg.model);
        let frames = FrameContract {
            channels: cfg.model.channels,
            height: cfg.model.height,
            width: cfg.model.width,
            dtype: DType::F32,
        };
        validate_pipeline(
            &standard_stages(cfg.clean),
            &spec,
            CarModel::frame_layout(cfg.model_kind),
            &frames,
        )
    }

    /// Run the whole loop on the happy path: no injected faults, default
    /// retry policy. Host CPU does the math; simulated time is attributed
    /// per stage.
    pub fn run(&self) -> Result<PipelineReport, PipelineError> {
        self.run_chaos(&mut FaultPlan::none(), &RetryPolicy::default())
    }

    /// Run the whole loop under fault injection: `plan` is consulted at
    /// every fallible operation, failed attempts are retried under
    /// `policy`, and the report's [`RunLog`] records what happened. The
    /// telemetry goes to a run-private [`Obs`]; use
    /// [`Pipeline::run_observed`] to keep (and export) the trace.
    pub fn run_chaos(
        &self,
        plan: &mut FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<PipelineReport, PipelineError> {
        let mut obs = Obs::new();
        self.run_observed(plan, policy, &mut obs)
    }

    /// [`Pipeline::run_chaos`] against a caller-owned observer: the whole
    /// run lands in `obs` as a root `pipeline` span with one child span
    /// per stage, `attempt` spans (fault events nested) under the
    /// fallible ones, and the stage/retry/fault metrics filled in. On
    /// failure the observer captures a [`PostMortem`](autolearn_obs::PostMortem)
    /// with the flight recorder's view of the final moments.
    pub fn run_observed(
        &self,
        plan: &mut FaultPlan,
        policy: &RetryPolicy,
        obs: &mut Obs,
    ) -> Result<PipelineReport, PipelineError> {
        let root = obs.begin_span("pipeline");
        let result = self.run_stages(plan, policy, obs);
        if let Err(err) = &result {
            obs.record_failure(&err.to_string());
        }
        obs.end_span(root);
        result
    }

    fn run_stages(
        &self,
        plan: &mut FaultPlan,
        policy: &RetryPolicy,
        obs: &mut Obs,
    ) -> Result<PipelineReport, PipelineError> {
        let cfg = &self.config;
        if let Err(errs) = self.preflight() {
            return Err(PipelineError::ContractViolated(errs));
        }
        let seed = cfg.collection.seed;
        let mut stages = Vec::new();
        let checkpoint = |obs: &mut Obs, stage: &str| {
            obs.event(
                "checkpoint",
                vec![("stage", AttrValue::Str(stage.to_string()))],
            );
        };

        // 1. Collect (student drives for the configured duration; the car
        // is offline during collection, so no continuum faults apply).
        let collect_span = obs.begin_span("collect");
        let collected = collect_session(&self.track, &cfg.collection);
        let collect_time = SimDuration::from_secs(collected.session.duration_s);
        obs.advance(collect_time);
        stages.push(StageTiming {
            stage: "collect".into(),
            duration: collect_time,
        });
        let records_collected = collected.records.len();
        obs.span_attr(
            collect_span,
            "records",
            AttrValue::UInt(records_collected as u64),
        );
        checkpoint(obs, "collect");
        obs.end_span(collect_span);

        // 2. Clean. The manual tubclean review plays the video back; charge
        // 1/4 of the session length for the student's review pass.
        let mut records = collected.records;
        if cfg.clean {
            let clean_span = obs.begin_span("clean");
            let cleaner = TubCleaner::new(CleanConfig::default());
            let report = cleaner.analyse(&records);
            let flagged = report.flagged_ids();
            records.retain(|r| !flagged.contains(&r.id));
            let clean_time = SimDuration::from_secs(collected.session.duration_s / 4.0);
            obs.advance(clean_time);
            stages.push(StageTiming {
                stage: "clean".into(),
                duration: clean_time,
            });
            obs.span_attr(
                clean_span,
                "flagged",
                AttrValue::UInt((records_collected - records.len()) as u64),
            );
            checkpoint(obs, "clean");
            obs.end_span(clean_span);
        }
        let records_cleaned = records.len();

        // 3. Reserve the GPU node. An injected capacity window walks down
        // the fallback chain to a strictly slower GPU; a transient launch
        // failure burns the wasted lease time and retries.
        let mut reservations = ReservationSystem::new(Site::chameleon());
        let chain = fallback_chain(cfg.gpu);
        let mut chain_idx = 0usize;
        let reserve_span = obs.begin_span("reserve");
        let ((gpu_used, launch), reserve_time) = retry_stage(
            "reserve",
            policy,
            derive_seed(seed, "retry-reserve"),
            obs,
            |_attempt, obs| {
                let gpu = chain[chain_idx.min(chain.len() - 1)];
                let node_type = format!("gpu_{}", gpu.name().to_lowercase());
                match launch_lease_observed(
                    &mut reservations,
                    "autolearn",
                    &node_type,
                    1,
                    SimTime::ZERO,
                    SimDuration::from_hours(4.0),
                    plan,
                    obs,
                ) {
                    Ok(launch) => {
                        let launch_time = launch.launch_time;
                        Ok(((gpu, launch), launch_time))
                    }
                    Err(LaunchError::Refused(e)) => {
                        Err(StageFault::Fatal(PipelineError::Reservation(e)))
                    }
                    Err(LaunchError::Transient { wasted }) => Err(StageFault::Retryable {
                        why: format!("transient launch failure on {node_type}"),
                        charged: wasted,
                    }),
                    Err(LaunchError::CapacityWindow { wasted, window }) => {
                        if chain_idx + 1 < chain.len() {
                            chain_idx += 1;
                            Err(StageFault::Retryable {
                                why: format!(
                                    "no {node_type} capacity, falling back to {}",
                                    chain[chain_idx]
                                ),
                                charged: wasted,
                            })
                        } else {
                            // Nothing slower to fall back to: wait the
                            // window out and try the same type again.
                            Err(StageFault::Retryable {
                                why: format!("no {node_type} capacity, waiting out window"),
                                charged: wasted + window,
                            })
                        }
                    }
                }
            },
        )?;
        let mut preempt = launch.preempt_at_fraction;
        stages.push(StageTiming {
            stage: "reserve".into(),
            duration: reserve_time,
        });
        obs.event(
            "gpu-selected",
            vec![("gpu", AttrValue::Str(gpu_used.name().to_string()))],
        );
        checkpoint(obs, "reserve");
        obs.end_span(reserve_span);

        // 4. Provision the CUDA image + rsync the tub up. The bare-metal
        // deploy steps are charged once; the upload is a resumable transfer
        // that re-sends only the delta after a mid-transfer fault.
        let upload_span = obs.begin_span("provision+upload");
        let fixed = ProvisioningPlan::cuda_image(SimDuration::ZERO).total();
        obs.advance(fixed);
        let mut upload = ResumableTransfer::new(TransferSpec::rsync(tub_bytes_estimate(&records)));
        let (_, upload_time) = retry_stage(
            "provision+upload",
            policy,
            derive_seed(seed, "retry-upload"),
            obs,
            |_attempt, obs| match upload.attempt_observed(
                &Path::car_to_cloud(),
                plan,
                "tub-upload",
                obs,
            ) {
                Ok(d) => Ok(((), d)),
                Err((failure, charged)) => Err(StageFault::Retryable {
                    why: failure.to_string(),
                    charged,
                }),
            },
        )?;
        stages.push(StageTiming {
            stage: "provision+upload".into(),
            duration: fixed + upload_time,
        });
        checkpoint(obs, "provision+upload");
        obs.end_span(upload_span);

        // 5. Train (real math on host; device time attributed). A scheduled
        // preemption revokes the lease mid-training: the partial epoch is
        // lost, the node relaunches, and training resumes from the last
        // completed epoch boundary.
        let train_span = obs.begin_span("train");
        let mut model = CarModel::build(cfg.model_kind, &cfg.model);
        let data = training_set(&records, &cfg.model, model.input_spec())?;
        let trainer = Trainer::new(cfg.train.clone());
        let train_report = trainer
            .fit_observed(&mut model, &data, obs)
            .map_err(PipelineError::ModelRejected)?;
        let cost = TrainingCostModel::new(
            model.flops_per_inference(),
            train_report.examples_seen,
            cfg.train.batch_size as u64,
        );
        // Each simulated run at the training work (the clean one, or the
        // preempted half plus the resumed half) becomes an `attempt` span,
        // same shape as the retried stages'.
        let train_attempt = |obs: &mut Obs, attempt: u32, outcome: &str, charged: SimDuration| {
            let span = open_attempt(obs, "train", attempt);
            close_attempt(obs, span, outcome, charged, SimDuration::ZERO);
        };
        let base_train = training_time(&cost, &ComputeDevice::of_gpu(gpu_used));
        let train_time = match preempt.take() {
            None => {
                train_attempt(obs, 1, "ok", base_train);
                base_train
            }
            Some(at_fraction) => {
                // Checkpoints land at epoch boundaries: resume re-runs the
                // interrupted epoch, after a fresh node launch.
                let planned = Epochs::new(cfg.train.epochs as u32).max_one();
                let banked = planned.completed_at(at_fraction);
                let kept = banked / planned;
                let lost = base_train * at_fraction;
                let relaunch = SimDuration::from_secs(LAUNCH_OVERHEAD_S);
                let resume = base_train * (1.0 - kept);
                train_attempt(
                    obs,
                    1,
                    &format!(
                        "preempted at {:.0}% of training, resuming from epoch {banked}",
                        at_fraction * 100.0,
                    ),
                    lost + relaunch,
                );
                train_attempt(obs, 2, "ok", resume);
                lost + relaunch + resume
            }
        };
        stages.push(StageTiming {
            stage: "train".into(),
            duration: train_time,
        });
        checkpoint(obs, "train");
        obs.end_span(train_span);

        // 6. Deploy the model: object store PUT from the GPU node (the
        // datacenter fabric is not a fault site), resumable GET down to the
        // car, then the car's container (re)start — both fault-prone.
        let deploy_span = obs.begin_span("deploy-model");
        let model_bytes = Bytes::new((model.param_count() * 4 + 4096) as u64);
        let put = transfer_time(
            &Path::of_presets(&[autolearn_net::LinkPreset::Datacenter]),
            &TransferSpec::object_store(model_bytes),
        );
        obs.advance(put);
        let mut get = ResumableTransfer::new(TransferSpec::object_store(model_bytes));
        let (_, get_time) = retry_stage(
            "deploy-model",
            policy,
            derive_seed(seed, "retry-deploy"),
            obs,
            |_attempt, obs| match get.attempt_observed(
                &Path::car_to_cloud(),
                plan,
                "model-download",
                obs,
            ) {
                Ok(d) => Ok(((), d)),
                Err((failure, charged)) => Err(StageFault::Retryable {
                    why: failure.to_string(),
                    charged,
                }),
            },
        )?;
        let mut runtime = ContainerRuntime::new();
        let image = ImageSpec::autolearn();
        let (_, container_time) = retry_stage(
            "deploy-container",
            policy,
            derive_seed(seed, "retry-container"),
            obs,
            // The image stays cached across failed attempts, so retries
            // start warm — only the fault's own cost is paid again.
            |_attempt, obs| match runtime.launch_with_faults_observed(
                &image,
                &Path::car_to_cloud(),
                plan,
                obs,
            ) {
                Ok((_container, d)) => Ok(((), d)),
                Err(err) => {
                    let wasted = match &err {
                        autolearn_edge::EdgeLaunchError::DeviceDisconnected { wasted, .. } => {
                            *wasted
                        }
                        autolearn_edge::EdgeLaunchError::ContainerCrashed { wasted } => *wasted,
                    };
                    Err(StageFault::Retryable {
                        why: err.to_string(),
                        charged: wasted,
                    })
                }
            },
        )?;
        stages.push(StageTiming {
            stage: "deploy-model".into(),
            duration: put + get_time + container_time,
        });
        checkpoint(obs, "deploy-model");
        obs.end_span(deploy_span);

        // 7. Evaluate: autonomous laps on the same kind of car that
        // collected the data.
        let (car, camera) = match cfg.collection.path {
            CollectionPath::PhysicalCar => (
                CarConfig::real_car(cfg.collection.seed ^ 0xe7a1),
                cfg.collection
                    .camera
                    .clone()
                    .with_noise(6.0, cfg.collection.seed ^ 0xe7a1),
            ),
            _ => (CarConfig::default(), cfg.collection.camera.clone()),
        };
        let mut sim = Simulation::new(
            self.track.clone(),
            car,
            camera,
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let eval_span = obs.begin_span("evaluate");
        let mut pilot = ModelPilot::new(model);
        let eval = sim.run_laps(&mut pilot, cfg.eval_laps, cfg.eval_max_duration_s);
        let eval_time = SimDuration::from_secs(eval.duration_s);
        obs.advance(eval_time);
        stages.push(StageTiming {
            stage: "evaluate".into(),
            duration: eval_time,
        });
        obs.span_attr(eval_span, "autonomy", AttrValue::F64(eval.autonomy()));
        checkpoint(obs, "evaluate");
        obs.end_span(eval_span);

        // Stage-latency metrics, in stage order.
        for timing in &stages {
            obs.observe("pipeline.stage_seconds", timing.duration.as_secs());
            obs.gauge_set(
                &format!("pipeline.stage.{}_s", timing.stage),
                timing.duration.as_secs(),
            );
        }

        // The run log is a view over the trace — no parallel bookkeeping.
        let log = RunLog::from_trace(obs.trace(), plan.injected().to_vec());
        Ok(PipelineReport {
            stages,
            records_collected,
            records_cleaned,
            train_report,
            eval_laps: eval.completed_laps(),
            eval_autonomy: eval.autonomy(),
            eval_mean_speed: eval.mean_speed(),
            eval_crashes: eval.crashes,
            model: pilot.into_model(),
            run_log: log,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolearn_track::circle_track;

    fn quick_config(seed: u64) -> PipelineConfig {
        let mut cfg = PipelineConfig::lesson_default(seed);
        cfg.collection.duration_s = 60.0;
        cfg.train.epochs = 6;
        cfg.eval_laps = 2;
        cfg.eval_max_duration_s = 60.0;
        cfg
    }

    #[test]
    fn full_pipeline_trains_a_driving_model() {
        let track = circle_track(3.0, 0.8);
        let pipeline = Pipeline::new(track, quick_config(11));
        let report = pipeline.run().expect("fault-free run succeeds");

        assert!(report.records_collected >= 1200);
        assert!(report.records_cleaned <= report.records_collected);
        assert!(report.train_report.best_val_loss.is_finite());
        // The trained linear model must actually drive: most of the
        // evaluation on-track.
        assert!(
            report.eval_autonomy > 0.85,
            "autonomy {}",
            report.eval_autonomy
        );
        assert!(report.eval_mean_speed > 0.2);

        // All stages accounted.
        for stage in [
            "collect",
            "clean",
            "reserve",
            "provision+upload",
            "train",
            "deploy-model",
            "evaluate",
        ] {
            assert!(report.stage(stage).is_some(), "missing stage {stage}");
        }
        // Provisioning dominates a short lesson, as every Chameleon user
        // knows.
        assert!(
            report.stage("provision+upload").unwrap().as_secs()
                > report.stage("train").unwrap().as_secs()
        );
        // Fault-free run: no faults, no failed attempts, configured GPU.
        assert!(report.run_log.faults.is_empty());
        assert_eq!(report.run_log.failed_attempts(), 0);
        assert_eq!(report.run_log.gpu_used, "V100");
        assert_eq!(report.run_log.completed_stages.last().unwrap(), "evaluate");
    }

    #[test]
    fn degenerate_model_yields_typed_error_not_panic() {
        // A 4x4 camera cannot survive the zoo's conv stack; the pipeline
        // must reject the config statically, before collecting anything.
        let mut cfg = quick_config(14);
        cfg.model.height = 4;
        cfg.model.width = 4;
        let pipeline = Pipeline::new(circle_track(3.0, 0.8), cfg);
        let errs = pipeline.preflight().expect_err("must reject 4x4 camera");
        assert!(!errs.is_empty());
        match pipeline.run() {
            Err(PipelineError::ContractViolated(run_errs)) => {
                assert_eq!(run_errs.len(), errs.len())
            }
            other => panic!(
                "expected ContractViolated, got {:?}",
                other.map(|_| "report")
            ),
        }
    }

    #[test]
    fn preflight_chains_all_six_zoo_models() {
        for kind in ModelKind::all() {
            let mut cfg = quick_config(16);
            cfg.model_kind = kind;
            let pipeline = Pipeline::new(circle_track(3.0, 0.8), cfg);
            let report = pipeline
                .preflight()
                .unwrap_or_else(|e| panic!("{kind:?}: {}", format_contract_errors(&e)));
            assert_eq!(report.stages.len(), 7, "{kind:?}");
            assert!(report.total_params > 0, "{kind:?}");
            assert!(report.quantities_checked >= 10, "{kind:?}");
        }
    }

    #[test]
    fn preflight_accepts_the_lesson_default() {
        let pipeline = Pipeline::new(circle_track(3.0, 0.8), quick_config(15));
        let report = pipeline.preflight().expect("lesson default validates");
        assert!(report.total_params > 0);
    }

    #[test]
    fn skipping_clean_keeps_all_records() {
        let track = circle_track(3.0, 0.8);
        let mut cfg = quick_config(12);
        cfg.clean = false;
        cfg.collection.duration_s = 30.0;
        cfg.train.epochs = 2;
        cfg.eval_laps = 1;
        cfg.eval_max_duration_s = 20.0;
        let report = Pipeline::new(track, cfg).run().expect("run succeeds");
        assert_eq!(report.records_cleaned, report.records_collected);
        assert!(report.stage("clean").is_none());
        assert!(!report.run_log.completed_stages.contains(&"clean".into()));
    }

    #[test]
    fn total_time_sums_stages() {
        let track = circle_track(3.0, 0.8);
        let mut cfg = quick_config(13);
        cfg.collection.duration_s = 30.0;
        cfg.train.epochs = 2;
        cfg.eval_laps = 1;
        cfg.eval_max_duration_s = 20.0;
        let report = Pipeline::new(track, cfg).run().expect("run succeeds");
        let sum: f64 = report.stages.iter().map(|s| s.duration.as_secs()).sum();
        assert!((report.total_time().as_secs() - sum).abs() < 1e-9);
        // A lesson is tens of minutes of simulated time, not hours.
        assert!(report.total_time().as_mins() > 10.0);
        assert!(report.total_time().as_hours() < 3.0);
    }

    #[test]
    fn fallback_chain_is_strictly_slower() {
        let eff = |g: GpuKind| g.peak_tflops() * g.sustained_fraction();
        for preferred in [GpuKind::V100, GpuKind::A100, GpuKind::K80] {
            let chain = fallback_chain(preferred);
            assert_eq!(chain[0], preferred);
            for pair in chain.windows(2) {
                assert!(eff(pair[0]) > eff(pair[1]), "{} !> {}", pair[0], pair[1]);
            }
        }
        // K80 is the floor: nothing to fall back to.
        assert_eq!(fallback_chain(GpuKind::K80).len(), 1);
    }

    #[test]
    fn tiny_tub_fails_the_train_stage_instead_of_panicking() {
        let mut cfg = quick_config(5);
        cfg.collection.duration_s = 0.0;
        match Pipeline::new(circle_track(3.0, 0.8), cfg).run() {
            Err(PipelineError::StageFailed {
                stage, last_error, ..
            }) => {
                assert_eq!(stage, "train");
                assert!(last_error.contains("at least 2"), "{last_error}");
            }
            Err(other) => panic!("expected a failed train stage, got {other}"),
            Ok(_) => panic!("an empty tub cannot train a model"),
        }
    }

    #[test]
    fn training_set_needs_two_examples_per_layout() {
        let cfg = ModelConfig::default();
        let records = |n: usize| -> Vec<Record> {
            (0..n)
                .map(|i| {
                    let img = autolearn_util::Image::new(16, 12, 3);
                    Record::new(i as u64, 0.0, 0.5, i as u64 * 50, img)
                })
                .collect()
        };
        let failed = |r: Result<Dataset, PipelineError>| matches!(r, Err(PipelineError::StageFailed { ref stage, .. }) if stage == "train");
        for spec in [InputSpec::Frames, InputSpec::FramesWithHistory(4)] {
            assert!(failed(training_set(&records(1), &cfg, spec)));
            assert_eq!(
                training_set(&records(2), &cfg, spec).map(|d| d.len()).ok(),
                Some(2)
            );
        }
        let seq = InputSpec::Sequence(3);
        assert!(failed(training_set(&records(0), &cfg, seq)));
        assert!(failed(training_set(&records(3), &cfg, seq)));
        assert_eq!(
            training_set(&records(4), &cfg, seq).map(|d| d.len()).ok(),
            Some(2)
        );
    }

    #[test]
    fn retry_stage_respects_attempt_cap_and_deadline() {
        let policy = RetryPolicy::default();
        let mut obs = Obs::new();
        let err = retry_stage::<()>("doomed", &policy, 1, &mut obs, |_, _| {
            Err(StageFault::Retryable {
                why: "always fails".into(),
                charged: SimDuration::from_secs(1.0),
            })
        })
        .unwrap_err();
        match err {
            PipelineError::StageFailed {
                stage, attempts, ..
            } => {
                assert_eq!(stage, "doomed");
                assert_eq!(attempts, policy.max_attempts);
            }
            other => panic!("expected StageFailed, got {other}"),
        }
        let log = RunLog::from_trace(obs.trace(), vec![]);
        assert_eq!(log.attempts.len(), policy.max_attempts as usize);

        let tight = RetryPolicy::default().with_deadline(SimDuration::from_secs(0.5));
        let mut obs = Obs::new();
        let err = retry_stage::<()>("late", &tight, 1, &mut obs, |_, _| {
            Err(StageFault::Retryable {
                why: "slow".into(),
                charged: SimDuration::from_secs(10.0),
            })
        })
        .unwrap_err();
        assert!(matches!(err, PipelineError::DeadlineExceeded { .. }));
    }

    #[test]
    fn run_log_view_round_trips_attempts_exactly() {
        // The trace is the only record: charged/backoff durations and
        // outcome strings must survive the span→RunLog view bit-for-bit.
        let policy = RetryPolicy::default();
        let mut obs = Obs::new();
        let mut fails_left = 2u32;
        let (_, elapsed) = retry_stage::<()>("flaky", &policy, 7, &mut obs, |_, _| {
            if fails_left > 0 {
                fails_left -= 1;
                Err(StageFault::Retryable {
                    why: "transient".into(),
                    charged: SimDuration::from_secs(0.1 + 0.2), // not exactly representable
                })
            } else {
                Ok(((), SimDuration::from_secs(3.5)))
            }
        })
        .expect("third attempt succeeds");

        let log = RunLog::from_trace(obs.trace(), vec![]);
        assert_eq!(log.attempts.len(), 3);
        assert_eq!(log.failed_attempts(), 2);
        let total: f64 = log
            .attempts
            .iter()
            .map(|a| a.charged.as_secs() + a.backoff.as_secs())
            .sum();
        assert_eq!(
            total,
            elapsed.as_secs(),
            "durations must round-trip exactly"
        );
        assert_eq!(log.attempts[0].stage, "flaky");
        assert_eq!(log.attempts[0].attempt, 1);
        assert_eq!(log.attempts[0].outcome, "transient");
        assert_eq!(log.attempts[0].charged, SimDuration::from_secs(0.1 + 0.2));
        assert_eq!(log.attempts[2].outcome, "ok");
        assert_eq!(log.attempts[2].backoff, SimDuration::ZERO);
        // The retry counter matches the failures; cursor advanced by the
        // full elapsed time.
        assert_eq!(obs.metrics().counter("pipeline.retries"), 2);
        assert_eq!(obs.now().as_secs(), elapsed.as_secs());
    }

    #[test]
    fn observed_run_exports_all_seven_stages_nested() {
        let track = circle_track(3.0, 0.8);
        let mut cfg = quick_config(17);
        cfg.collection.duration_s = 30.0;
        cfg.train.epochs = 2;
        cfg.eval_laps = 1;
        cfg.eval_max_duration_s = 20.0;
        let pipeline = Pipeline::new(track, cfg);
        let mut obs = Obs::new();
        let report = pipeline
            .run_observed(&mut FaultPlan::none(), &RetryPolicy::default(), &mut obs)
            .expect("fault-free observed run succeeds");

        // Root span + the seven stages nested directly under it.
        let trace = obs.trace();
        let root = trace.spans_named("pipeline").next().expect("root span");
        assert!(root.end.is_some());
        for stage in [
            "collect",
            "clean",
            "reserve",
            "provision+upload",
            "train",
            "deploy-model",
            "evaluate",
        ] {
            let span = trace
                .spans_named(stage)
                .next()
                .unwrap_or_else(|| panic!("missing span {stage}"));
            assert_eq!(
                span.parent,
                Some(autolearn_obs::SpanId(0)),
                "{stage} not under root"
            );
        }
        // The run log reconstructed from the trace matches what run_chaos
        // would have recorded.
        assert_eq!(report.run_log.completed_stages.last().unwrap(), "evaluate");
        assert_eq!(report.run_log.gpu_used, "V100");
        // Stage metrics landed: seven observations, one per stage.
        let h = obs
            .metrics()
            .histogram("pipeline.stage_seconds")
            .expect("stage histogram");
        assert_eq!(h.count, 7);
        // Sim-time cursor ended at the total pipeline duration (the cursor
        // sums increments in a different order, so allow one ulp of drift).
        let drift = (obs.now().as_secs() - report.total_time().as_secs()).abs();
        assert!(drift < 1e-9, "cursor drifted {drift} from stage totals");
        // Exports work end-to-end and are Perfetto-shaped.
        let json = obs.export_chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"checkpoint\""));
    }
}
