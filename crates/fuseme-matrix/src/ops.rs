//! Scalar operation vocabulary shared by blocks, plans, and fused kernels.
//!
//! The paper's five basic operator types (§2.1) reduce, at the element level,
//! to the scalar functions defined here: unary maps, binary maps, and
//! aggregation folds. Keeping them as small `Copy` enums lets fused kernels
//! be interpreted per element without boxing or virtual dispatch.

use serde::{Deserialize, Serialize};

/// Unary element-wise operations (`u(...)` nodes in the paper's DAGs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Natural logarithm.
    Log,
    /// Exponential.
    Exp,
    /// Square root.
    Sqrt,
    /// Square (the paper's `^2`).
    Square,
    /// Absolute value.
    Abs,
    /// Arithmetic negation.
    Neg,
    /// Sigmoid `1 / (1 + e^-x)`, used by the AutoEncoder workload.
    Sigmoid,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Sine.
    Sin,
    /// Indicator of non-zero: `x != 0` as 0.0/1.0 (the paper's `(X != 0)`).
    NotZero,
    /// Identity; useful as a fusion no-op in tests.
    Identity,
}

impl UnaryOp {
    /// Applies the operation to one element.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Log => x.ln(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Square => x * x,
            UnaryOp::Abs => x.abs(),
            UnaryOp::Neg => -x,
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sin => x.sin(),
            UnaryOp::NotZero => {
                if x != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Identity => x,
        }
    }

    /// `true` if `op(0) == 0`, i.e. the operation preserves sparsity and a
    /// sparse block stays sparse under it. `Log` and `Exp` map zero to
    /// non-zero, densifying their input.
    pub fn preserves_zero(self) -> bool {
        match self {
            UnaryOp::Sqrt
            | UnaryOp::Square
            | UnaryOp::Abs
            | UnaryOp::Neg
            | UnaryOp::Relu
            | UnaryOp::Tanh
            | UnaryOp::Sin
            | UnaryOp::NotZero
            | UnaryOp::Identity => true,
            UnaryOp::Log | UnaryOp::Exp | UnaryOp::Sigmoid => false,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Log => "log",
            UnaryOp::Exp => "exp",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Square => "^2",
            UnaryOp::Abs => "abs",
            UnaryOp::Neg => "neg",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Relu => "relu",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sin => "sin",
            UnaryOp::NotZero => "!=0",
            UnaryOp::Identity => "id",
        }
    }
}

/// Binary element-wise operations (`b(...)` nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Element-wise (Hadamard) multiplication, the paper's `*`.
    Mul,
    /// Element-wise division, the paper's `÷`.
    Div,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise power `a^b`.
    Pow,
    /// Inequality test producing 0.0/1.0 (the paper's `b(≠)`).
    NotEq,
    /// Greater-than test producing 0.0/1.0.
    Greater,
}

impl BinOp {
    /// Applies the operation to one element pair.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Pow => a.powf(b),
            BinOp::NotEq => {
                if a != b {
                    1.0
                } else {
                    0.0
                }
            }
            BinOp::Greater => {
                if a > b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// `true` if a zero on *either* side forces a zero output, so the result
    /// of `sparse op dense` is at most as dense as the sparse side. Only
    /// multiplication has this property among our ops; it is what makes
    /// Outer-fusion sparsity exploitation sound.
    pub fn zero_dominant(self) -> bool {
        matches!(self, BinOp::Mul)
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Pow => "pow",
            BinOp::NotEq => "!=",
            BinOp::Greater => ">",
        }
    }
}

/// Aggregation operations (`ua(...)` nodes and the reduction step of
/// binary aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggOp {
    /// Sum of elements.
    Sum,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

impl AggOp {
    /// Identity element of the fold.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            AggOp::Sum => 0.0,
            AggOp::Min => f64::INFINITY,
            AggOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Combines two partial results.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            AggOp::Sum => a + b,
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }

    /// Folds an iterator of elements.
    pub fn fold(self, iter: impl Iterator<Item = f64>) -> f64 {
        iter.fold(self.identity(), |acc, v| self.combine(acc, v))
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_apply() {
        assert_eq!(UnaryOp::Square.apply(3.0), 9.0);
        assert_eq!(UnaryOp::NotZero.apply(0.0), 0.0);
        assert_eq!(UnaryOp::NotZero.apply(-2.0), 1.0);
        assert_eq!(UnaryOp::Relu.apply(-1.0), 0.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_preservation_classification() {
        for op in [UnaryOp::Square, UnaryOp::Abs, UnaryOp::NotZero] {
            assert!(op.preserves_zero());
            assert_eq!(op.apply(0.0), 0.0);
        }
        for op in [UnaryOp::Exp, UnaryOp::Sigmoid] {
            assert!(!op.preserves_zero());
            assert_ne!(op.apply(0.0), 0.0);
        }
    }

    #[test]
    fn binary_apply() {
        assert_eq!(BinOp::Pow.apply(2.0, 10.0), 1024.0);
        assert_eq!(BinOp::NotEq.apply(1.0, 1.0), 0.0);
        assert_eq!(BinOp::NotEq.apply(1.0, 2.0), 1.0);
        assert_eq!(BinOp::Greater.apply(2.0, 1.0), 1.0);
        assert_eq!(BinOp::Min.apply(2.0, 1.0), 1.0);
    }

    #[test]
    fn mul_is_zero_dominant() {
        assert!(BinOp::Mul.zero_dominant());
        assert!(!BinOp::Add.zero_dominant());
        assert_eq!(BinOp::Mul.apply(0.0, 123.0), 0.0);
        assert_eq!(BinOp::Mul.apply(123.0, 0.0), 0.0);
    }

    #[test]
    fn agg_folds() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(AggOp::Sum.fold(v.iter().copied()), 6.0);
        assert_eq!(AggOp::Min.fold(v.iter().copied()), 1.0);
        assert_eq!(AggOp::Max.fold(v.iter().copied()), 3.0);
        assert_eq!(AggOp::Sum.fold(std::iter::empty()), 0.0);
    }
}
