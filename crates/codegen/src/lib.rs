//! Output generation (§7): OpenQASM 3 and QIR, behind the [`backend`]
//! registry.
//!
//! Every emission path is a [`backend::Backend`] looked up by name in a
//! [`backend::BackendRegistry`] — there is no direct-call emission API:
//!
//! - `qasm`: OpenQASM 3 text from the straight-line circuit form (after
//!   reg2mem), ready for tools in the IBM ecosystem;
//! - `qir-base`: QIR — LLVM IR text — *Base Profile* (a straight-line
//!   gate sequence with `inttoptr` qubit indices, no dynamic allocation);
//! - `qir-unrestricted`: QIR *Unrestricted Profile* (dynamic qubit
//!   allocation, callables via `__quantum__rt__callable_*` intrinsics,
//!   structured control flow lowered to branches).
//!
//! `asdf-sim` implements a `sim` backend on the same trait, and
//! `asdf_core::Session::emit` is the user-facing entry point over exactly
//! these four. A backend name is looked up, never parsed: routing onto a
//! hardware target is a compile option (`CompileOptions::target`), so the
//! circuit a backend receives is already routed.
//!
//! Table 1 counts `callable_create` / `callable_invoke` occurrences in
//! emitted QIR text, which [`count_callable_intrinsics`] reproduces (an
//! analysis, not an emission path, so it stays a free function).

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub mod backend;
pub(crate) mod qasm;
pub(crate) mod qir;

pub use backend::{Backend, BackendError, BackendRegistry, EmitInput};
pub use qir::count_callable_intrinsics;

/// Appends `n` in decimal, as `write!(out, "{n}")` does, without going
/// through the formatter: the emitters print a qubit index per operand.
fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    #[test]
    fn decimals_match_the_formatter() {
        for n in [0, 7, 10, 99, 100, 4096, 65_535, 1 << 40, usize::MAX] {
            let mut out = String::from("q[");
            super::push_decimal(&mut out, n);
            assert_eq!(out, format!("q[{n}"));
        }
    }
}
