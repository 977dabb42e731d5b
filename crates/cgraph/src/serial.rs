//! Text serialization for computational graphs, so models can be saved,
//! diffed, and loaded without rebuilding them in code.
//!
//! ```text
//! input image [1x3x224x224]
//! op stem.conv conv2d out=64 k=7x7 s=2x2 p=3x3 <- image
//! op stem.relu act relu <- stem.conv
//! ```

use crate::graph::{Graph, NodeId};
use crate::op::{Activation, OpKind};
use crate::shape::TShape;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A serialization/parse failure, located down to the byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGraphError {
    /// 1-based line number.
    pub line: usize,
    /// Byte offset of the offending token from the start of the input
    /// text (the start of the line's content when no single token is to
    /// blame), so tooling can point straight at the defect.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {} (byte {}): {}",
            self.line, self.offset, self.message
        )
    }
}

impl std::error::Error for ParseGraphError {}

fn shape_text(s: &TShape) -> String {
    let dims: Vec<String> = s.0.iter().map(usize::to_string).collect();
    format!("[{}]", dims.join("x"))
}

fn kind_text(kind: &OpKind) -> String {
    match kind {
        OpKind::Input | OpKind::Constant => unreachable!("sources serialize separately"),
        OpKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        } => format!(
            "conv2d out={out_channels} k={}x{} s={}x{} p={}x{}",
            kernel.0, kernel.1, stride.0, stride.1, padding.0, padding.1
        ),
        OpKind::DepthwiseConv2d {
            kernel,
            stride,
            padding,
        } => format!(
            "dwconv2d k={}x{} s={}x{} p={}x{}",
            kernel.0, kernel.1, stride.0, stride.1, padding.0, padding.1
        ),
        OpKind::ConvTranspose2d {
            out_channels,
            kernel,
            stride,
        } => format!(
            "convt2d out={out_channels} k={}x{} s={}x{}",
            kernel.0, kernel.1, stride.0, stride.1
        ),
        OpKind::MatMul { n } => format!("matmul n={n}"),
        OpKind::BatchMatMul { n } => format!("batchmatmul n={n}"),
        OpKind::Add => "add".into(),
        OpKind::Mul => "mul".into(),
        OpKind::Div => "div".into(),
        OpKind::Pow => "pow".into(),
        OpKind::Act(Activation::Relu) => "act relu".into(),
        OpKind::Act(Activation::Relu6) => "act relu6".into(),
        OpKind::Act(Activation::HardSwish) => "act hswish".into(),
        OpKind::Sigmoid => "sigmoid".into(),
        OpKind::Softmax => "softmax".into(),
        OpKind::LayerNorm => "layernorm".into(),
        OpKind::Gelu => "gelu".into(),
        OpKind::MaxPool { kernel, stride } => {
            format!(
                "maxpool k={}x{} s={}x{}",
                kernel.0, kernel.1, stride.0, stride.1
            )
        }
        OpKind::AvgPool { kernel, stride } => {
            format!(
                "avgpool k={}x{} s={}x{}",
                kernel.0, kernel.1, stride.0, stride.1
            )
        }
        OpKind::GlobalAvgPool => "gap".into(),
        OpKind::Upsample { factor } => format!("upsample f={factor}"),
        OpKind::Reshape { shape } => format!("reshape to={}", shape_text(shape)),
        OpKind::Transpose => "transpose".into(),
        OpKind::Concat => "concat".into(),
    }
}

/// Serializes a graph to the textual form.
pub fn to_text(graph: &Graph) -> String {
    let mut out = String::new();
    for node in graph.nodes() {
        match &node.kind {
            OpKind::Input => {
                let _ = writeln!(out, "input {} {}", node.name, shape_text(&node.shape));
            }
            OpKind::Constant => {
                let _ = writeln!(out, "const {} {}", node.name, shape_text(&node.shape));
            }
            kind => {
                let inputs: Vec<String> = node
                    .inputs
                    .iter()
                    .map(|i| graph.node(*i).name.clone())
                    .collect();
                let _ = writeln!(
                    out,
                    "op {} {} <- {}",
                    node.name,
                    kind_text(kind),
                    inputs.join(", ")
                );
            }
        }
    }
    out
}

fn parse_shape(tok: &str) -> Result<TShape, String> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("bad shape '{tok}'"))?;
    let dims: Result<Vec<usize>, _> = inner.split('x').map(str::parse).collect();
    Ok(TShape::new(dims.map_err(|_| format!("bad shape '{tok}'"))?))
}

fn parse_pair(v: &str) -> Result<(usize, usize), String> {
    let (a, b) = v.split_once('x').ok_or_else(|| format!("bad pair '{v}'"))?;
    Ok((
        a.parse().map_err(|_| format!("bad pair '{v}'"))?,
        b.parse().map_err(|_| format!("bad pair '{v}'"))?,
    ))
}

/// `k=v` attribute lookup over the mnemonic's tokens.
fn attr<'a>(tokens: &'a [&'a str], key: &str) -> Result<&'a str, String> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| format!("missing attribute '{key}'"))
}

fn parse_kind(tokens: &[&str]) -> Result<OpKind, String> {
    let mnemonic = *tokens.first().ok_or("missing op mnemonic")?;
    let rest = &tokens[1..];
    Ok(match mnemonic {
        "conv2d" => OpKind::Conv2d {
            out_channels: attr(rest, "out")?
                .parse()
                .map_err(|_| "bad out".to_string())?,
            kernel: parse_pair(attr(rest, "k")?)?,
            stride: parse_pair(attr(rest, "s")?)?,
            padding: parse_pair(attr(rest, "p")?)?,
        },
        "dwconv2d" => OpKind::DepthwiseConv2d {
            kernel: parse_pair(attr(rest, "k")?)?,
            stride: parse_pair(attr(rest, "s")?)?,
            padding: parse_pair(attr(rest, "p")?)?,
        },
        "convt2d" => OpKind::ConvTranspose2d {
            out_channels: attr(rest, "out")?
                .parse()
                .map_err(|_| "bad out".to_string())?,
            kernel: parse_pair(attr(rest, "k")?)?,
            stride: parse_pair(attr(rest, "s")?)?,
        },
        "matmul" => OpKind::MatMul {
            n: attr(rest, "n")?.parse().map_err(|_| "bad n".to_string())?,
        },
        "batchmatmul" => OpKind::BatchMatMul {
            n: attr(rest, "n")?.parse().map_err(|_| "bad n".to_string())?,
        },
        "add" => OpKind::Add,
        "mul" => OpKind::Mul,
        "div" => OpKind::Div,
        "pow" => OpKind::Pow,
        "act" => match rest.first().copied() {
            Some("relu") => OpKind::Act(Activation::Relu),
            Some("relu6") => OpKind::Act(Activation::Relu6),
            Some("hswish") => OpKind::Act(Activation::HardSwish),
            other => return Err(format!("unknown activation {other:?}")),
        },
        "sigmoid" => OpKind::Sigmoid,
        "softmax" => OpKind::Softmax,
        "layernorm" => OpKind::LayerNorm,
        "gelu" => OpKind::Gelu,
        "maxpool" => OpKind::MaxPool {
            kernel: parse_pair(attr(rest, "k")?)?,
            stride: parse_pair(attr(rest, "s")?)?,
        },
        "avgpool" => OpKind::AvgPool {
            kernel: parse_pair(attr(rest, "k")?)?,
            stride: parse_pair(attr(rest, "s")?)?,
        },
        "gap" => OpKind::GlobalAvgPool,
        "upsample" => OpKind::Upsample {
            factor: attr(rest, "f")?.parse().map_err(|_| "bad f".to_string())?,
        },
        "reshape" => OpKind::Reshape {
            shape: parse_shape(attr(rest, "to")?)?,
        },
        "transpose" => OpKind::Transpose,
        "concat" => OpKind::Concat,
        other => return Err(format!("unknown op '{other}'")),
    })
}

/// The byte offset of `tok` within `text`. `tok` must be a subslice of
/// `text` (every token the parser handles is — `trim`,
/// `split_whitespace`, and `split_once` all return subslices), which
/// makes this plain pointer arithmetic on guaranteed-in-bounds
/// addresses, no `unsafe` involved.
fn offset_of(text: &str, tok: &str) -> usize {
    (tok.as_ptr() as usize).saturating_sub(text.as_ptr() as usize)
}

/// Parses the textual form back into a graph (shapes are re-inferred and
/// must match what the serializer recorded).
///
/// The text is treated as untrusted: every structural defect — bad
/// syntax, unknown mnemonics, duplicate or dangling names, operators
/// whose shapes do not validate — is reported as a [`ParseGraphError`]
/// carrying its line number and the byte offset of the offending token.
/// No input text panics this function; graph construction goes through
/// [`Graph::try_add`].
pub fn from_text(text: &str) -> Result<Graph, ParseGraphError> {
    let mut graph = Graph::new();
    let mut by_name: HashMap<String, NodeId> = HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        // Errors with no more precise culprit point at the start of the
        // line's content; `err_at` pins one to a specific token.
        let err_at = |message: String, tok: &str| ParseGraphError {
            line: lineno,
            offset: offset_of(text, tok),
            message,
        };
        let err = |message: String| err_at(message, line);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let declare = |by_name: &mut HashMap<String, NodeId>,
                       name: &str,
                       id: NodeId|
         -> Result<(), ParseGraphError> {
            if by_name.insert(name.to_string(), id).is_some() {
                return Err(err_at(format!("duplicate node name '{name}'"), name));
            }
            Ok(())
        };
        if let Some(rest) = line.strip_prefix("input ") {
            let (name, shape) = rest
                .split_once(' ')
                .ok_or_else(|| err("bad input line".into()))?;
            let shape = shape.trim();
            let id = graph.input(name, parse_shape(shape).map_err(|m| err_at(m, shape))?);
            declare(&mut by_name, name, id)?;
        } else if let Some(rest) = line.strip_prefix("const ") {
            let (name, shape) = rest
                .split_once(' ')
                .ok_or_else(|| err("bad const line".into()))?;
            let shape = shape.trim();
            let id = graph.constant(name, parse_shape(shape).map_err(|m| err_at(m, shape))?);
            declare(&mut by_name, name, id)?;
        } else if let Some(rest) = line.strip_prefix("op ") {
            let (decl, deps) = rest
                .split_once("<-")
                .ok_or_else(|| err("missing '<-'".into()))?;
            let mut tokens = decl.split_whitespace();
            let name = tokens.next().ok_or_else(|| err("missing op name".into()))?;
            let kind_tokens: Vec<&str> = tokens.collect();
            // Kind-parse failures are attributed to the mnemonic token
            // (the first after the name) when one exists.
            let kind_tok = kind_tokens.first().copied().unwrap_or(line);
            let kind = parse_kind(&kind_tokens).map_err(|m| err_at(m, kind_tok))?;
            let inputs: Result<Vec<NodeId>, ParseGraphError> = deps
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|n| {
                    by_name
                        .get(n)
                        .copied()
                        .ok_or_else(|| err_at(format!("unknown input '{n}'"), n))
                })
                .collect();
            let id = graph
                .try_add(kind, &inputs?, name)
                .map_err(|e| err_at(e.to_string(), name))?;
            declare(&mut by_name, name, id)?;
        } else {
            return Err(err(format!("unrecognized line '{line}'")));
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_written_graph_parses() {
        let text = "
# a small residual block
input x [1x16x8x8]
op conv conv2d out=16 k=3x3 s=1x1 p=1x1 <- x
op relu act relu <- conv
op sum add <- relu, x
op pool maxpool k=2x2 s=2x2 <- sum
";
        let g = from_text(text).expect("parses");
        assert_eq!(g.op_count(), 4);
        assert_eq!(g.nodes().last().unwrap().shape, TShape::nchw(1, 16, 4, 4));
    }

    #[test]
    fn unknown_input_is_an_error() {
        let err = from_text("op a add <- ghost, ghost").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn bad_mnemonic_reports_line() {
        let err = from_text("input x [4]\nop y warp <- x").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn duplicate_names_are_an_error() {
        let err = from_text("input x [4]\ninput x [8]").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate"));
        let err = from_text("input x [4]\nop x add <- x, x").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate"));
    }

    /// The malformed-text corpus: every rejection pinpoints the
    /// offending token by byte offset, not just by line.
    #[test]
    fn errors_carry_byte_offsets() {
        // Unknown dependency: offset of the first `ghost`.
        let text = "op a add <- ghost, ghost";
        let err = from_text(text).unwrap_err();
        assert_eq!((err.line, err.offset), (1, 12));
        assert_eq!(&text[err.offset..err.offset + 5], "ghost");

        // Unknown mnemonic on line 2: offset of `warp` in the full text.
        let text = "input x [4]\nop y warp <- x";
        let err = from_text(text).unwrap_err();
        assert_eq!((err.line, err.offset), (2, 17));
        assert_eq!(&text[err.offset..err.offset + 4], "warp");

        // Duplicate declaration: offset of the *second* `x`.
        let text = "input x [4]\ninput x [8]";
        let err = from_text(text).unwrap_err();
        assert_eq!((err.line, err.offset), (2, 18));

        // Malformed shape token.
        let text = "input x [4x]";
        let err = from_text(text).unwrap_err();
        assert_eq!((err.line, err.offset), (1, 8));
        assert_eq!(&text[err.offset..], "[4x]");

        // Unrecognized line: offset of its first non-blank byte.
        let text = "input x [4]\n   junk line";
        let err = from_text(text).unwrap_err();
        assert_eq!((err.line, err.offset), (2, 15));

        // Shape-inference rejection is attributed to the op name.
        let text = "input x [1x3x4x4]\nop c conv2d out=8 k=9x9 s=1x1 p=0x0 <- x";
        let err = from_text(text).unwrap_err();
        assert_eq!((err.line, err.offset), (2, 21));
        assert_eq!(&text[err.offset..err.offset + 1], "c");

        // The Display form carries both coordinates.
        assert!(err.to_string().starts_with("line 2 (byte 21):"), "{err}");
    }

    #[test]
    fn invalid_shapes_are_errors_not_panics() {
        // Kernel larger than the padded input.
        let err =
            from_text("input x [1x3x4x4]\nop c conv2d out=8 k=9x9 s=1x1 p=0x0 <- x").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("exceeds"), "{}", err.message);
        // Zero stride would divide by zero.
        assert!(from_text("input x [1x3x8x8]\nop c conv2d out=8 k=3x3 s=0x0 p=1x1 <- x").is_err());
        // Rank-0 matmul input would underflow the dims index.
        assert!(from_text("input x []\nop m matmul n=4 <- x").is_err());
        // Conv over a rank-2 tensor.
        assert!(from_text("input x [8x8]\nop c conv2d out=8 k=3x3 s=1x1 p=1x1 <- x").is_err());
        // Dimension products that overflow usize.
        assert!(from_text("input x [1x3x8x8]\nop u upsample f=18446744073709551615 <- x").is_err());
        // Reshape that changes the element count.
        assert!(from_text("input x [1x3x8x8]\nop r reshape to=[1x3x8x9] <- x").is_err());
        // Elementwise over incompatible shapes.
        assert!(from_text("input a [1x3x8x8]\ninput b [1x4x8x8]\nop s add <- a, b").is_err());
    }
}
