//! SSA values and the operand/result lists ops store them in.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// An SSA value identifier, scoped to one [`Func`]'s value arena.
///
/// Values are created by [`FuncBuilder`] methods and typed by the function's
/// arena; a `Value` from one function must never be used in another (the
/// verifier will catch out-of-range ids, but not cross-function confusion
/// of in-range ids).
///
/// [`Func`]: crate::Func
/// [`FuncBuilder`]: crate::FuncBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub(crate) u32);

impl Value {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a value from a raw arena index. Intended for analyses
    /// that store per-value data in dense vectors.
    pub fn from_index(index: usize) -> Self {
        Value(u32::try_from(index).expect("value index overflow"))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// How many values a [`ValueList`] holds without a heap allocation.
const INLINE: usize = 3;

/// An op's operand or result list: up to three values live in place,
/// longer lists spill to one heap array, as MLIR keeps short operand lists
/// inside the op.
///
/// Most ops take at most three operands and yield at most three results,
/// so most ops own no heap memory for them. The list takes the space of a
/// `Vec` (24 bytes), and it dereferences to `[Value]`, so it reads like a
/// slice: indexing, iteration, `len`, `contains` and `to_vec` all work.
/// `Debug` prints it as a slice would.
///
/// # Example
///
/// ```
/// use asdf_ir::value::ValueList;
/// use asdf_ir::Value;
///
/// let (a, b) = (Value::from_index(0), Value::from_index(1));
/// let mut list = ValueList::from(vec![a, b]);
/// list.push(a);
/// list.push(b); // the fourth value spills to the heap
/// assert_eq!(list, [a, b, a, b]);
/// assert_eq!(format!("{list:?}"), format!("{:?}", [a, b, a, b]));
/// ```
#[derive(Clone)]
pub struct ValueList(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, values: [Value; INLINE] },
    Heap(Vec<Value>),
}

impl ValueList {
    /// An empty list.
    #[inline]
    pub(crate) const fn new() -> Self {
        ValueList(Repr::Inline { len: 0, values: [Value(0); INLINE] })
    }

    /// Appends a value, spilling to the heap when the inline slots are
    /// full.
    pub fn push(&mut self, v: Value) {
        match &mut self.0 {
            Repr::Inline { len, values } if (*len as usize) < INLINE => {
                values[*len as usize] = v;
                *len += 1;
            }
            Repr::Inline { values, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(values);
                spilled.push(v);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(vec) => vec.push(v),
        }
    }

    /// The values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Heap(vec) => vec,
        }
    }

    /// The values as a `Vec`, reusing a spilled list's heap array.
    pub fn into_vec(self) -> Vec<Value> {
        match self.0 {
            Repr::Inline { len, values } => values[..usize::from(len)].to_vec(),
            Repr::Heap(vec) => vec,
        }
    }

    /// The values as a mutable slice.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [Value] {
        match &mut self.0 {
            Repr::Inline { len, values } => &mut values[..usize::from(*len)],
            Repr::Heap(vec) => vec,
        }
    }
}

impl Default for ValueList {
    fn default() -> Self {
        ValueList::new()
    }
}

impl Deref for ValueList {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl DerefMut for ValueList {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Value] {
        self.as_mut_slice()
    }
}

impl fmt::Debug for ValueList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl From<&[Value]> for ValueList {
    #[inline]
    fn from(values: &[Value]) -> Self {
        if values.len() <= INLINE {
            let mut inline = [Value(0); INLINE];
            inline[..values.len()].copy_from_slice(values);
            ValueList(Repr::Inline { len: values.len() as u8, values: inline })
        } else {
            ValueList(Repr::Heap(values.to_vec()))
        }
    }
}

/// Keeps a long vector's allocation; a short one moves inline.
impl From<Vec<Value>> for ValueList {
    #[inline]
    fn from(values: Vec<Value>) -> Self {
        if values.len() <= INLINE {
            ValueList::from(values.as_slice())
        } else {
            ValueList(Repr::Heap(values))
        }
    }
}

/// Spills to one heap array of the right size when the iterator reports
/// more values than fit inline.
impl FromIterator<Value> for ValueList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().0 > INLINE {
            return ValueList(Repr::Heap(iter.collect()));
        }
        let mut list = ValueList::new();
        for v in iter {
            list.push(v);
        }
        list
    }
}

impl PartialEq for ValueList {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[Value; N]> for ValueList {
    #[inline]
    fn eq(&self, other: &[Value; N]) -> bool {
        self.as_slice() == other
    }
}

impl<'a> IntoIterator for &'a ValueList {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut ValueList {
    type Item = &'a mut Value;
    type IntoIter = std::slice::IterMut<'a, Value>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// The owning iterator of a [`ValueList`].
#[derive(Debug, Clone)]
pub struct IntoIter {
    list: ValueList,
    next: usize,
}

impl Iterator for IntoIter {
    type Item = Value;

    #[inline]
    fn next(&mut self) -> Option<Value> {
        let v = self.list.get(self.next).copied();
        self.next += usize::from(v.is_some());
        v
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for IntoIter {}

impl IntoIterator for ValueList {
    type Item = Value;
    type IntoIter = IntoIter;

    #[inline]
    fn into_iter(self) -> IntoIter {
        IntoIter { list: self, next: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::from_index(10 + i)).collect()
    }

    fn is_inline(list: &ValueList) -> bool {
        matches!(list.0, Repr::Inline { .. })
    }

    #[test]
    fn push_spills_past_the_inline_capacity() {
        let mut list = ValueList::new();
        for (n, v) in values(8).into_iter().enumerate() {
            list.push(v);
            assert_eq!(list.as_slice(), &values(n + 1)[..]);
            assert_eq!(is_inline(&list), n < INLINE, "after {} pushes", n + 1);
        }
    }

    #[test]
    fn from_vec_on_both_sides_of_the_boundary() {
        for n in [0, 1, INLINE, INLINE + 1, 9] {
            let list = ValueList::from(values(n));
            assert_eq!(list.as_slice(), values(n));
            assert_eq!(is_inline(&list), n <= INLINE, "{n} values");
            assert_eq!(ValueList::from(values(n).as_slice()), list);
            assert_eq!(list.into_vec(), values(n));
        }
    }

    #[test]
    fn inline_and_spilled_lists_with_equal_contents_are_equal() {
        let inline = ValueList::from(values(2));
        let mut spilled = ValueList::from(values(INLINE + 1));
        // Shrink the spilled list's contents to the inline list's without
        // moving it back inline.
        let Repr::Heap(vec) = &mut spilled.0 else { panic!("four values spill") };
        vec.truncate(2);
        assert!(!is_inline(&spilled));
        assert_eq!(inline, spilled);
        assert_eq!(spilled, inline);
        assert_ne!(inline, ValueList::from(values(3)));
    }

    #[test]
    fn debug_prints_like_a_slice() {
        for n in [0, 2, INLINE + 2] {
            let vec = values(n);
            assert_eq!(format!("{:?}", ValueList::from(vec.clone())), format!("{vec:?}"));
            assert_eq!(format!("{:#?}", ValueList::from(vec.clone())), format!("{vec:#?}"));
        }
    }

    #[test]
    fn owned_and_borrowed_iteration() {
        for n in [0, 2, INLINE + 2] {
            let mut list = ValueList::from(values(n));
            let borrowed: Vec<Value> = (&list).into_iter().copied().collect();
            assert_eq!(borrowed, values(n));
            for v in &mut list {
                *v = Value::from_index(v.index() + 1);
            }
            let owned = list.clone().into_iter();
            assert_eq!(owned.len(), n);
            let shifted: Vec<Value> = owned.collect();
            assert_eq!(shifted, values(n + 1)[1..]);
            assert_eq!(list.into_iter().collect::<ValueList>().as_slice(), shifted);
        }
    }

    #[test]
    fn a_list_takes_the_space_of_a_vec() {
        assert_eq!(std::mem::size_of::<ValueList>(), std::mem::size_of::<Vec<Value>>());
    }
}
