//! The frontend never panics: `tokenize`, `parse` and `lower` turn any
//! string over the script alphabet into a DAG or an error.
//!
//! Three generators: raw characters of the alphabet, which mostly exercise
//! the lexer; sequences of whole tokens (names, functions, operators,
//! numbers, brackets, statement separators), which get past it into the
//! parser; and syntactically valid scripts whose names, arities and shapes
//! are unchecked, which reach lowering.

use std::collections::HashMap;

use fuseme_lang::{lower, parse, tokenize};
use fuseme_matrix::MatrixMeta;
use proptest::prelude::*;

/// Every character a script uses, plus a few it must reject.
const ALPHABET: &[char] = &[
    'X', 'U', 'V', 'W', 't', 'o', 'u', 'l', 'g', 'e', 'x', 'p', 's', 'q', 'r', 'b', 'm', 'n', 'i',
    'a', 'R', 'w', 'C', 'S', '0', '1', '2', '9', '.', '(', ')', '%', '*', '/', '+', '-', '^', '=',
    '!', '>', ',', ';', '\n', '#', ' ', '_', '\t', '"', 'é', '∑',
];

const WORDS: &[&str] = &[
    "X", "U", "V", "W", "out", "output", "t", "log", "exp", "sqrt", "abs", "sum", "min", "max",
    "rowSums", "colSums", "rowMaxs", "colMaxs", "sigmoid", "nope", "%*%", "%", "*", "/", "+", "-",
    "^", "=", "!=", ">", "!", "(", ")", ",", ";", "\n", "#", " ", "0", "2", "1e-9", "0.5", "1e",
    ".", "3.", "1e+", "e5",
];

const NAMES: &[&str] = &["X", "U", "V", "W", "a", "b", "Missing"];
const FUNCS: &[&str] = &[
    "t", "log", "exp", "sqrt", "sum", "rowSums", "colMaxs", "min", "nope",
];
const OPS: &[&str] = &["+", "-", "*", "/", "^", "%*%", "!=", ">"];
const NUMBERS: &[&str] = &["0", "2", "0.5", "1e-9", "-1"];

/// A well-formed script drawn from `bytes`: statements `name = expr` over
/// the inputs, earlier names, numbers, operators and calls (arity and
/// shapes unchecked), then an `output` line.
fn script(bytes: &[u8]) -> String {
    let mut it = bytes.iter().copied().cycle().take(bytes.len() * 4);
    let mut next = move || it.next().unwrap_or(0) as usize;
    let mut lines = Vec::new();
    let statements = 1 + next() % 3;
    for s in 0..statements {
        let e = expr(&mut next, 3);
        lines.push(format!("{} = {e}", NAMES[4 + s % 2]));
    }
    lines.push(format!("output {}", NAMES[4 + next() % 3]));
    lines.join("\n")
}

fn expr(next: &mut impl FnMut() -> usize, depth: usize) -> String {
    let pick = |xs: &[&str], n: usize| xs[n % xs.len()].to_string();
    match if depth == 0 { next() % 2 } else { next() % 6 } {
        0 => pick(NAMES, next()),
        1 => pick(NUMBERS, next()),
        2 | 3 => {
            let l = expr(next, depth - 1);
            let op = pick(OPS, next());
            format!("{l} {op} {}", expr(next, depth - 1))
        }
        4 => {
            let f = pick(FUNCS, next());
            let args = (0..next() % 3)
                .map(|_| expr(next, depth - 1))
                .collect::<Vec<_>>();
            format!("{f}({})", args.join(", "))
        }
        _ => format!("-({})", expr(next, depth - 1)),
    }
}

/// Runs the whole frontend; only a panic fails.
fn compile_all(source: &str) {
    let inputs = HashMap::from([
        ("X".to_string(), MatrixMeta::sparse(40, 30, 10, 0.1)),
        ("U".to_string(), MatrixMeta::dense(40, 20, 10)),
        ("V".to_string(), MatrixMeta::dense(30, 20, 10)),
        ("W".to_string(), MatrixMeta::dense(1, 1, 10)),
    ]);
    let Ok(tokens) = tokenize(source) else {
        return;
    };
    let Ok(program) = parse(&tokens) else {
        return;
    };
    let _ = lower(&program, &inputs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn raw_characters_never_panic(chars in proptest::collection::vec(0..ALPHABET.len(), 0..48)) {
        let source: String = chars.iter().map(|&c| ALPHABET[c]).collect();
        compile_all(&source);
    }

    #[test]
    fn well_formed_scripts_never_panic(bytes in proptest::collection::vec(0u8..=255, 1..32)) {
        compile_all(&script(&bytes));
    }

    #[test]
    fn token_sequences_never_panic(words in proptest::collection::vec(0..WORDS.len(), 0..24)) {
        let source: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
        compile_all(&source.join(""));
        // Statements that start well reach the expression parser and
        // lowering far more often.
        compile_all(&format!("out = {}", source.join(" ")));
    }
}
