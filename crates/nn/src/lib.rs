//! From-scratch neural-network library for the AutoLearn reproduction.
//!
//! The paper trains DonkeyCar's Keras model zoo (linear, categorical,
//! inferred, memory, RNN, 3D) on TensorFlow atop Chameleon GPU nodes. With
//! no TensorFlow available, this crate reimplements the necessary subset
//! from scratch:
//!
//! * a dense `f32` [`Tensor`] whose matmul/conv paths all lower onto one
//!   blocked, panel-packed GEMM primitive ([`kernels`]), with the naive
//!   loops kept in [`kernels::reference`] as the correctness oracle,
//! * layers with hand-written backward passes (`Dense`, `Conv2D`, `Conv3D`,
//!   `MaxPool2D`, `Flatten`, `Dropout`, `BatchNorm1d`, activations, `Lstm`,
//!   `TimeDistributed`),
//! * losses (MSE, softmax cross-entropy), optimizers (SGD+momentum, Adam),
//! * a [`Sequential`] container plus the six two-headed DonkeyCar
//!   architectures in [`models`], each instantiated from its symbolic
//!   plan ([`Sequential::from_specs`]),
//! * FLOP introspection through every layer's spec
//!   (`layer.spec().flops(..)`), feeding the analytic GPU performance
//!   model in `autolearn-cloud`,
//! * JSON (de)serialisation of weights so "pre-trained models" can live in
//!   the object store exactly as the paper stores them.
//!
//! Every layer's backward pass is validated against central finite
//! differences in the test suite.

pub mod data;
pub mod init;
/// Blocked panel-packed GEMM, im2col lowering, and the per-layer scratch
/// arena — the numeric core every layer's forward/backward routes through.
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod schedule;
pub mod sequential;
pub mod tensor;
pub mod train;

pub use autolearn_analyze::contract::{
    format_contract_errors, standard_stages, validate_pipeline, ContractError, ContractReport,
    DType, FrameContract, FrameLayout, StageSpec,
};
pub use autolearn_analyze::graph::{format_errors, validate_model, GraphError, GraphReport};
pub use data::{Batch, Dataset};
pub use layers::{Activation, Layer};
pub use loss::Loss;
pub use models::{DonkeyModel, ModelKind};
pub use optim::{Adam, Optimizer, Sgd};
pub use schedule::{LrSchedule, LrScheduler};
pub use sequential::Sequential;
pub use tensor::Tensor;
pub use train::{TrainConfig, TrainReport, Trainer};
