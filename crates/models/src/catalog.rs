//! The model catalog: the ten evaluation workloads of Table IV, with the
//! paper-reported reference statistics used for validation and reporting.

use gcd2_cgraph::Graph;
use std::fmt;

/// The ten DNNs of the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// MobileNet-V3 (2D CNN, classification).
    MobileNetV3,
    /// EfficientNet-b0 (2D CNN, classification).
    EfficientNetB0,
    /// ResNet-50 (2D CNN, classification).
    ResNet50,
    /// Fast Style Transfer (2D CNN, style transfer).
    Fst,
    /// CycleGAN generator (GAN, image translation).
    CycleGan,
    /// WDSR-b (2D CNN, super resolution).
    WdsrB,
    /// EfficientDet-d0 (2D CNN, object detection).
    EfficientDetD0,
    /// PixOr (2D CNN, 3D object detection from point clouds).
    PixOr,
    /// TinyBERT (transformer, NLP).
    TinyBert,
    /// Conformer (transformer, speech recognition).
    Conformer,
}

impl ModelId {
    /// All models, in Table IV order.
    pub const ALL: [ModelId; 10] = [
        ModelId::MobileNetV3,
        ModelId::EfficientNetB0,
        ModelId::ResNet50,
        ModelId::Fst,
        ModelId::CycleGan,
        ModelId::WdsrB,
        ModelId::EfficientDetD0,
        ModelId::PixOr,
        ModelId::TinyBert,
        ModelId::Conformer,
    ];

    /// Builds the model's computational graph.
    pub fn build(self) -> Graph {
        match self {
            ModelId::MobileNetV3 => crate::cnn::mobilenet_v3(),
            ModelId::EfficientNetB0 => crate::cnn::efficientnet_b0(),
            ModelId::ResNet50 => crate::cnn::resnet50(),
            ModelId::Fst => crate::gan::fst(),
            ModelId::CycleGan => crate::gan::cyclegan(),
            ModelId::WdsrB => crate::gan::wdsr_b(),
            ModelId::EfficientDetD0 => crate::detect::efficientdet_d0(),
            ModelId::PixOr => crate::detect::pixor(),
            ModelId::TinyBert => crate::transformer::tinybert(),
            ModelId::Conformer => crate::transformer::conformer(),
        }
    }

    /// Paper-reported reference statistics (Table IV).
    pub fn reference(self) -> ModelRef {
        match self {
            ModelId::MobileNetV3 => ModelRef::new(
                "MobileNet-V3",
                0.22e9,
                5.5e6,
                193,
                Some(7.5),
                Some(6.2),
                4.0,
            ),
            ModelId::EfficientNetB0 => ModelRef::new(
                "EfficientNet-b0",
                0.40e9,
                4.0e6,
                254,
                Some(9.1),
                Some(9.2),
                6.0,
            ),
            ModelId::ResNet50 => {
                ModelRef::new("ResNet-50", 4.1e9, 25.5e6, 140, Some(13.9), Some(11.6), 7.1)
            }
            ModelId::Fst => ModelRef::new("FST", 161e9, 1.7e6, 64, Some(935.0), Some(870.0), 211.0),
            ModelId::CycleGan => {
                ModelRef::new("CycleGAN", 186e9, 11e6, 84, Some(450.0), Some(366.0), 181.0)
            }
            ModelId::WdsrB => {
                ModelRef::new("WDSR-b", 11.5e9, 22.2e3, 32, Some(400.0), Some(137.0), 66.7)
            }
            ModelId::EfficientDetD0 => {
                ModelRef::new("EfficientDet-d0", 2.6e9, 4.3e6, 822, Some(62.8), None, 26.0)
            }
            ModelId::PixOr => {
                ModelRef::new("PixOr", 8.8e9, 2.1e6, 150, Some(43.0), Some(26.4), 11.7)
            }
            ModelId::TinyBert => ModelRef::new("TinyBERT", 1.4e9, 4.7e6, 211, None, None, 12.2),
            ModelId::Conformer => ModelRef::new("Conformer", 5.6e9, 1.2e6, 675, None, None, 65.0),
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reference().name)
    }
}

/// Reference (paper-reported) numbers for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRef {
    /// Model name as printed in Table IV.
    pub name: &'static str,
    /// Multiply-accumulate count.
    pub macs: f64,
    /// Parameter count.
    pub params: f64,
    /// Operator count.
    pub operators: usize,
    /// TFLite DSP latency in ms (`None` = unsupported).
    pub tflite_ms: Option<f64>,
    /// SNPE DSP latency in ms (`None` = unsupported).
    pub snpe_ms: Option<f64>,
    /// GCD2 DSP latency in ms.
    pub gcd2_ms: f64,
}

impl ModelRef {
    fn new(
        name: &'static str,
        macs: f64,
        params: f64,
        operators: usize,
        tflite_ms: Option<f64>,
        snpe_ms: Option<f64>,
        gcd2_ms: f64,
    ) -> Self {
        ModelRef {
            name,
            macs,
            params,
            operators,
            tflite_ms,
            snpe_ms,
            gcd2_ms,
        }
    }
}
