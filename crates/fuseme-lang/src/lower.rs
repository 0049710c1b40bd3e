//! Lowering from the script AST to a [`QueryDag`].
//!
//! Scalar subexpressions are folded at lowering time (so `2 ^ 10` or a
//! negated literal never reach the plan), matching what SystemML's
//! simplification passes do before plan generation. `x ^ 2` lowers to the
//! dedicated square unary; comparisons against literal `0` use the sparse-
//! friendly `NotZero` unary when possible.

use std::collections::HashMap;

use fuseme_matrix::{AggOp, BinOp, MatrixMeta, UnaryOp};
use fuseme_plan::{DagBuilder, Expr as PlanExpr, QueryDag};

use crate::ast::{BinaryOp, Expr, Program, Stmt};

/// Lowering failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        message: message.into(),
    })
}

/// A lowered value: a plan node or a compile-time scalar.
#[derive(Debug, Clone, Copy)]
enum Value {
    Node(PlanExpr),
    Scalar(f64),
}

/// Lowers a program to a query DAG. Free identifiers resolve through
/// `inputs`; assigned names shadow inputs from their assignment onward.
pub fn lower(
    program: &Program,
    inputs: &HashMap<String, MatrixMeta>,
) -> Result<QueryDag, LowerError> {
    let mut builder = DagBuilder::new();
    let mut env: HashMap<String, Value> = HashMap::new();
    for stmt in &program.stmts {
        match stmt {
            Stmt::Assign { name, expr } => {
                let value = lower_expr(expr, &mut builder, &mut env, inputs)?;
                env.insert(name.clone(), value);
            }
            Stmt::Output(_) => {}
        }
    }
    let output_names = program.output_names();
    if output_names.is_empty() {
        return err("script has no output (no assignments)");
    }
    let mut roots = Vec::new();
    for name in output_names {
        match env.get(name) {
            Some(Value::Node(e)) => roots.push(*e),
            Some(Value::Scalar(v)) => {
                return err(format!(
                    "output '{name}' is the compile-time scalar {v}, not a matrix"
                ))
            }
            None => return err(format!("output '{name}' is never assigned")),
        }
    }
    Ok(builder.finish(roots))
}

fn resolve(
    name: &str,
    builder: &mut DagBuilder,
    env: &mut HashMap<String, Value>,
    inputs: &HashMap<String, MatrixMeta>,
) -> Result<Value, LowerError> {
    if let Some(v) = env.get(name) {
        return Ok(*v);
    }
    if let Some(meta) = inputs.get(name) {
        let node = builder.try_input(name, *meta).map_err(|e| LowerError {
            message: e.to_string(),
        })?;
        let v = Value::Node(node);
        env.insert(name.to_string(), v);
        return Ok(v);
    }
    err(format!(
        "unknown name '{name}' (not assigned, not an input)"
    ))
}

fn lower_expr(
    expr: &Expr,
    builder: &mut DagBuilder,
    env: &mut HashMap<String, Value>,
    inputs: &HashMap<String, MatrixMeta>,
) -> Result<Value, LowerError> {
    match expr {
        Expr::Number(v) => Ok(Value::Scalar(*v)),
        Expr::Ident(name) => resolve(name, builder, env, inputs),
        Expr::Neg(inner) => {
            let v = lower_expr(inner, builder, env, inputs)?;
            match v {
                Value::Scalar(s) => Ok(Value::Scalar(-s)),
                Value::Node(n) => Ok(Value::Node(builder.try_unary(n, UnaryOp::Neg).map_err(
                    |e| LowerError {
                        message: e.to_string(),
                    },
                )?)),
            }
        }
        Expr::Binary { op, left, right } => {
            let l = lower_expr(left, builder, env, inputs)?;
            let r = lower_expr(right, builder, env, inputs)?;
            lower_binary(*op, l, r, builder)
        }
        Expr::Call { name, args } => lower_call(name, args, builder, env, inputs),
    }
}

fn as_node(v: Value, builder: &mut DagBuilder) -> PlanExpr {
    match v {
        Value::Node(n) => n,
        Value::Scalar(s) => builder.scalar(s),
    }
}

fn lower_binary(
    op: BinaryOp,
    l: Value,
    r: Value,
    builder: &mut DagBuilder,
) -> Result<Value, LowerError> {
    // Fold scalar-scalar arithmetic at compile time.
    if let (Value::Scalar(a), Value::Scalar(b)) = (l, r) {
        let folded = match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Pow => a.powf(b),
            BinaryOp::MatMul => return err("%*% between two scalars"),
            BinaryOp::NotEq => f64::from(a != b),
            BinaryOp::Greater => f64::from(a > b),
        };
        return Ok(Value::Scalar(folded));
    }
    // x ^ 2 → the dedicated square unary (fuses better and is what the
    // paper's loss expressions mean).
    if op == BinaryOp::Pow {
        if let (Value::Node(base), Value::Scalar(e)) = (l, r) {
            if e == 2.0 {
                return Ok(Value::Node(
                    builder
                        .try_unary(base, UnaryOp::Square)
                        .map_err(|e| LowerError {
                            message: e.to_string(),
                        })?,
                ));
            }
        }
    }
    // x != 0 → NotZero unary (sparsity-preserving).
    if op == BinaryOp::NotEq {
        if let (Value::Node(n), Value::Scalar(0.0)) = (l, r) {
            return Ok(Value::Node(
                builder
                    .try_unary(n, UnaryOp::NotZero)
                    .map_err(|e| LowerError {
                        message: e.to_string(),
                    })?,
            ));
        }
        if let (Value::Scalar(0.0), Value::Node(n)) = (l, r) {
            return Ok(Value::Node(
                builder
                    .try_unary(n, UnaryOp::NotZero)
                    .map_err(|e| LowerError {
                        message: e.to_string(),
                    })?,
            ));
        }
    }
    if op == BinaryOp::MatMul {
        let (Value::Node(a), Value::Node(b)) = (l, r) else {
            return err("%*% requires matrix operands");
        };
        return Ok(Value::Node(builder.try_matmul(a, b).map_err(|e| {
            LowerError {
                message: e.to_string(),
            }
        })?));
    }
    let bin = match op {
        BinaryOp::Add => BinOp::Add,
        BinaryOp::Sub => BinOp::Sub,
        BinaryOp::Mul => BinOp::Mul,
        BinaryOp::Div => BinOp::Div,
        BinaryOp::Pow => BinOp::Pow,
        BinaryOp::NotEq => BinOp::NotEq,
        BinaryOp::Greater => BinOp::Greater,
        BinaryOp::MatMul => return err("%*% requires matrix operands"),
    };
    let ln = as_node(l, builder);
    let rn = as_node(r, builder);
    Ok(Value::Node(builder.try_binary(ln, rn, bin).map_err(
        |e| LowerError {
            message: e.to_string(),
        },
    )?))
}

fn lower_call(
    name: &str,
    args: &[Expr],
    builder: &mut DagBuilder,
    env: &mut HashMap<String, Value>,
    inputs: &HashMap<String, MatrixMeta>,
) -> Result<Value, LowerError> {
    let unary = |name: &str| -> Option<UnaryOp> {
        Some(match name {
            "log" => UnaryOp::Log,
            "exp" => UnaryOp::Exp,
            "sqrt" => UnaryOp::Sqrt,
            "abs" => UnaryOp::Abs,
            "sigmoid" => UnaryOp::Sigmoid,
            "relu" => UnaryOp::Relu,
            "tanh" => UnaryOp::Tanh,
            "sin" => UnaryOp::Sin,
            _ => return None,
        })
    };
    let agg = |name: &str| -> Option<(AggOp, AggShapeKind)> {
        Some(match name {
            "sum" => (AggOp::Sum, AggShapeKind::Full),
            "min" => (AggOp::Min, AggShapeKind::Full),
            "max" => (AggOp::Max, AggShapeKind::Full),
            "rowSums" => (AggOp::Sum, AggShapeKind::Row),
            "colSums" => (AggOp::Sum, AggShapeKind::Col),
            "rowMaxs" => (AggOp::Max, AggShapeKind::Row),
            "colMaxs" => (AggOp::Max, AggShapeKind::Col),
            _ => return None,
        })
    };

    if args.len() != 1 {
        return err(format!("{name}() expects exactly one argument"));
    }
    let v = lower_expr(&args[0], builder, env, inputs)?;
    if name == "t" {
        let Value::Node(n) = v else {
            return err("t() requires a matrix argument");
        };
        return Ok(Value::Node(builder.transpose(n)));
    }
    if let Some(op) = unary(name) {
        return match v {
            Value::Scalar(s) => Ok(Value::Scalar(op.apply(s))),
            Value::Node(n) => Ok(Value::Node(builder.try_unary(n, op).map_err(|e| {
                LowerError {
                    message: e.to_string(),
                }
            })?)),
        };
    }
    if let Some((op, shape)) = agg(name) {
        let Value::Node(n) = v else {
            return err(format!("{name}() requires a matrix argument"));
        };
        return Ok(Value::Node(match shape {
            AggShapeKind::Full => builder.full_agg(n, op),
            AggShapeKind::Row => builder.row_agg(n, op),
            AggShapeKind::Col => builder.col_agg(n, op),
        }));
    }
    err(format!("unknown function '{name}'"))
}

enum AggShapeKind {
    Full,
    Row,
    Col,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, tokenize};
    use fuseme_plan::OpKind;

    fn compile(src: &str, inputs: &[(&str, MatrixMeta)]) -> Result<QueryDag, LowerError> {
        let tokens = tokenize(src).unwrap();
        let program = parse(&tokens).unwrap();
        let map = inputs.iter().map(|(n, m)| (n.to_string(), *m)).collect();
        lower(&program, &map)
    }

    fn m(r: usize, c: usize) -> MatrixMeta {
        MatrixMeta::dense(r, c, 10)
    }

    #[test]
    fn weighted_squared_loss_lowering() {
        let dag = compile(
            "loss = sum((X != 0) * (X - U %*% V)^2)",
            &[
                ("X", MatrixMeta::sparse(40, 40, 10, 0.1)),
                ("U", m(40, 4)),
                ("V", m(4, 40)),
            ],
        )
        .unwrap();
        dag.validate().unwrap();
        // The != 0 became a NotZero unary; the ^2 became Square.
        assert!(dag
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::Unary(UnaryOp::NotZero))));
        assert!(dag
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::Unary(UnaryOp::Square))));
        assert!(dag
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::FullAgg(AggOp::Sum))));
    }

    #[test]
    fn scalar_folding_at_compile_time() {
        let dag = compile("y = X * (2 ^ 10)", &[("X", m(20, 20))]).unwrap();
        let scalars: Vec<f64> = dag
            .nodes()
            .iter()
            .filter_map(|n| match n.kind {
                OpKind::Scalar(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(scalars, vec![1024.0]);
    }

    #[test]
    fn variables_chain_between_statements() {
        let dag = compile(
            "numU = U * (t(V) %*% X)\ndenU = t(V) %*% V %*% U\nout = numU / denU",
            &[
                ("X", MatrixMeta::sparse(40, 40, 10, 0.1)),
                ("U", m(4, 40)),
                ("V", m(40, 4)),
            ],
        )
        .unwrap();
        dag.validate().unwrap();
        assert_eq!(dag.matmuls().len(), 3);
        assert_eq!(dag.roots().len(), 1);
    }

    #[test]
    fn shape_error_surfaces() {
        let e = compile("y = X %*% Y", &[("X", m(10, 20)), ("Y", m(10, 20))]).unwrap_err();
        assert!(e.message.contains("inner dimensions"), "{e}");
    }

    #[test]
    fn unknown_function_reported() {
        let e = compile("y = frobnicate(X)", &[("X", m(4, 4))]).unwrap_err();
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn scalar_output_rejected() {
        let e = compile("y = 1 + 2", &[]).unwrap_err();
        assert!(e.message.contains("scalar"));
    }

    #[test]
    fn multiple_outputs() {
        let dag = compile(
            "a = rowSums(X)\nb = colSums(X)\noutput a, b",
            &[("X", m(30, 20))],
        )
        .unwrap();
        assert_eq!(dag.roots().len(), 2);
        let a = dag.node(dag.roots()[0]);
        let b = dag.node(dag.roots()[1]);
        assert_eq!((a.meta.shape.rows, a.meta.shape.cols), (30, 1));
        assert_eq!((b.meta.shape.rows, b.meta.shape.cols), (1, 20));
    }

    #[test]
    fn input_used_twice_is_one_leaf() {
        let dag = compile("y = X * X", &[("X", m(8, 8))]).unwrap();
        let inputs = dag
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Input { .. }))
            .count();
        assert_eq!(inputs, 1);
    }

    #[test]
    fn lowered_script_evaluates_correctly() {
        use fuseme_matrix::gen;
        use fuseme_plan::{evaluate, Bindings};
        use std::sync::Arc;
        let x = gen::dense_uniform(12, 12, 4, 0.5, 1.5, 1).unwrap();
        let u = gen::dense_uniform(12, 6, 4, 0.5, 1.5, 2).unwrap();
        let v = gen::dense_uniform(6, 12, 4, 0.5, 1.5, 3).unwrap();
        let dag = compile(
            "out = X * log(U %*% V + 0.5)",
            &[("X", *x.meta()), ("U", *u.meta()), ("V", *v.meta())],
        )
        .unwrap();
        let expected = {
            let uv = u.matmul(&v).unwrap();
            let lg = uv
                .zip_scalar(0.5, fuseme_matrix::BinOp::Add)
                .unwrap()
                .map(UnaryOp::Log)
                .unwrap();
            x.zip(&lg, fuseme_matrix::BinOp::Mul).unwrap()
        };
        let binds: Bindings = [
            ("X".to_string(), Arc::new(x)),
            ("U".to_string(), Arc::new(u)),
            ("V".to_string(), Arc::new(v)),
        ]
        .into_iter()
        .collect();
        let got = evaluate(&dag, &binds).unwrap();
        assert!(got[0].as_matrix().unwrap().approx_eq(&expected, 1e-12));
    }
}
