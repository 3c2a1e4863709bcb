//! Modules: ordered collections of functions.

use crate::error::IrError;
use crate::func::Func;
use std::collections::HashMap;

/// A module: the unit of compilation, holding all functions (kernels,
/// lifted lambdas, and generated specializations).
#[derive(Debug, Clone, Default)]
pub struct Module {
    funcs: Vec<Func>,
    by_name: HashMap<String, usize>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function, replacing any existing function of the same name.
    pub fn add_func(&mut self, func: Func) {
        if let Some(&idx) = self.by_name.get(&func.name) {
            self.funcs[idx] = func;
        } else {
            self.by_name.insert(func.name.clone(), self.funcs.len());
            self.funcs.push(func);
        }
    }

    /// Looks up a function by symbol name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.by_name.get(name).map(|&idx| &self.funcs[idx])
    }

    /// Mutable lookup by symbol name.
    pub fn func_mut(&mut self, name: &str) -> Option<&mut Func> {
        let idx = *self.by_name.get(name)?;
        Some(&mut self.funcs[idx])
    }

    /// Looks up a function, returning [`IrError::UnknownSymbol`] if absent.
    ///
    /// # Errors
    ///
    /// Returns an error when the symbol is not defined.
    pub fn expect_func(&self, name: &str) -> Result<&Func, IrError> {
        self.func(name).ok_or_else(|| IrError::UnknownSymbol(name.to_string()))
    }

    /// All functions, in insertion order.
    pub fn funcs(&self) -> &[Func] {
        &self.funcs
    }

    /// Mutable access to all functions.
    pub fn funcs_mut(&mut self) -> &mut [Func] {
        &mut self.funcs
    }

    /// Function names in insertion order (owned, so callers can mutate the
    /// module while iterating).
    pub fn func_names(&self) -> Vec<String> {
        self.funcs.iter().map(|f| f.name.clone()).collect()
    }

    /// Whether a symbol is defined.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Removes a function by name, returning it if present. Used to drop
    /// fully inlined private functions.
    pub(crate) fn remove_func(&mut self, name: &str) -> Option<Func> {
        let idx = self.by_name.remove(name)?;
        let func = self.funcs.remove(idx);
        // Reindex everything after the removal point.
        for (i, f) in self.funcs.iter().enumerate().skip(idx) {
            self.by_name.insert(f.name.clone(), i);
        }
        Some(func)
    }

    /// A fresh symbol name based on `base` that does not collide with any
    /// existing function.
    pub fn fresh_name(&self, base: &str) -> String {
        if !self.contains(base) {
            return base.to_string();
        }
        for i in 0.. {
            let candidate = format!("{base}__{i}");
            if !self.contains(&candidate) {
                return candidate;
            }
        }
        unreachable!()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncBuilder, Visibility};
    use crate::op::OpKind;
    use crate::types::FuncType;

    fn stub(name: &str) -> Func {
        let mut b =
            FuncBuilder::new(name, FuncType::new(vec![], vec![], false), Visibility::Private);
        b.block().push(OpKind::Return, vec![], vec![]);
        b.finish()
    }

    #[test]
    fn add_lookup_remove() {
        let mut m = Module::new();
        m.add_func(stub("a"));
        m.add_func(stub("b"));
        m.add_func(stub("c"));
        assert_eq!(m.len(), 3);
        assert!(m.func("b").is_some());
        m.remove_func("b");
        assert!(m.func("b").is_none());
        assert!(m.func("c").is_some(), "reindexing after removal");
        assert!(m.expect_func("b").is_err());
    }

    #[test]
    fn replace_same_name() {
        let mut m = Module::new();
        m.add_func(stub("a"));
        m.add_func(stub("a"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn fresh_names() {
        let mut m = Module::new();
        m.add_func(stub("lambda"));
        assert_eq!(m.fresh_name("other"), "other");
        let fresh = m.fresh_name("lambda");
        assert_ne!(fresh, "lambda");
        assert!(!m.contains(&fresh));
    }
}
