//! Declarative counter groups: one [`counters!`](crate::counters!)
//! declaration per group generates the struct, its cross-rank `merge`
//! and its JSON section.
//!
//! Every field names two rules next to its type:
//!
//! - **merge** — `sum` for flows (bytes, KVs, nanoseconds blocked) or
//!   `max` for gauges, high-water marks and collective quantities that
//!   every rank sees alike;
//! - **parse** — `req` when a report without the key is malformed, or
//!   `opt` when the key postdates the first release and reads as zero
//!   from older reports.

use crate::json::{Json, JsonError};

/// A value a counter field can hold: how two of them merge.
/// Implemented for `u64`, `f64`, `[u64; N]` and every declared group.
pub trait Counter: Copy {
    /// `self += other` (element-wise for arrays).
    fn sum(&mut self, other: &Self);
    /// `self = max(self, other)` (element-wise for arrays).
    fn max(&mut self, other: &Self);
    /// Appends the value as fixed-width words (a declared group: its
    /// fields in declaration order), for binary encodings.
    fn words(&self, out: &mut Vec<u64>);
    /// Inverse of [`Self::words`]; `None` when `words` runs out.
    fn from_words(words: &mut impl Iterator<Item = u64>) -> Option<Self>;
}

impl Counter for u64 {
    fn sum(&mut self, other: &Self) {
        *self += other;
    }
    fn max(&mut self, other: &Self) {
        *self = Ord::max(*self, *other);
    }
    fn words(&self, out: &mut Vec<u64>) {
        out.push(*self);
    }
    fn from_words(words: &mut impl Iterator<Item = u64>) -> Option<Self> {
        words.next()
    }
}

impl Counter for f64 {
    fn sum(&mut self, other: &Self) {
        *self += other;
    }
    fn max(&mut self, other: &Self) {
        *self = f64::max(*self, *other);
    }
    fn words(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
    fn from_words(words: &mut impl Iterator<Item = u64>) -> Option<Self> {
        words.next().map(f64::from_bits)
    }
}

impl<const N: usize> Counter for [u64; N] {
    fn sum(&mut self, other: &Self) {
        self.iter_mut().zip(other).for_each(|(a, b)| a.sum(b));
    }
    fn max(&mut self, other: &Self) {
        self.iter_mut()
            .zip(other)
            .for_each(|(a, b)| Counter::max(a, b));
    }
    fn words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self);
    }
    fn from_words(words: &mut impl Iterator<Item = u64>) -> Option<Self> {
        let mut out = [0; N];
        for slot in &mut out {
            *slot = words.next()?;
        }
        Some(out)
    }
}

/// A counter value with a JSON form.
pub trait JsonField: Sized + Default {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// Reads [`Self::to_json`]'s output back; `None` when mistyped.
    fn from_json(v: &Json) -> Option<Self>;
}

impl JsonField for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_f64().map(|n| n as u64)
    }
}

impl JsonField for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

/// Histograms: a short or partly mistyped array fills what it can and
/// leaves the rest zero.
impl<const N: usize> JsonField for [u64; N]
where
    [u64; N]: Default,
{
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|&n| Json::Num(n as f64)).collect())
    }
    fn from_json(v: &Json) -> Option<Self> {
        let mut out = [0; N];
        for (slot, item) in out.iter_mut().zip(v.as_arr()?) {
            *slot = item.as_u64().unwrap_or(0);
        }
        Some(out)
    }
}

/// The `req` parse rule: `section.key` of the report `v` must be present
/// and well-typed. An empty `section` reads a top-level key.
///
/// # Errors
/// The key (or its section) is missing or mistyped.
pub fn req<T: JsonField>(v: &Json, section: &str, key: &str) -> Result<T, JsonError> {
    let path = || {
        if section.is_empty() {
            key.to_string()
        } else {
            format!("{section}.{key}")
        }
    };
    let sec = if section.is_empty() {
        Some(v)
    } else {
        v.get(section)
    };
    let val = sec.and_then(|s| s.get(key)).ok_or_else(|| JsonError {
        msg: format!("missing field `{}`", path()),
        at: 0,
    })?;
    T::from_json(val).ok_or_else(|| JsonError {
        msg: format!("field `{}` is not a number", path()),
        at: 0,
    })
}

/// The `opt` parse rule: a missing or mistyped key reads as zero.
///
/// # Errors
/// Never; the `Result` matches [`req`] so declarations can swap rules.
pub fn opt<T: JsonField>(v: &Json, section: &str, key: &str) -> Result<T, JsonError> {
    Ok(req(v, section, key).unwrap_or_default())
}

/// Declares one counter group. See the [module docs](mod@crate::counters)
/// for the rules; the shape is
///
/// ```
/// mimir_obs::counters! {
///     /// What the group counts.
///     pub struct ExampleCounters {
///         /// A flow: sums across ranks, required in JSON.
///         sent: u64 [sum, req],
///         /// A high-water mark added in a later release.
///         peak: u64 [max, opt],
///     }
/// }
/// let mut a = ExampleCounters { sent: 3, peak: 9 };
/// a.merge(&ExampleCounters { sent: 4, peak: 5 });
/// assert_eq!(a, ExampleCounters { sent: 7, peak: 9 });
/// let json = mimir_obs::Json::obj(vec![("example", a.to_json())]);
/// assert_eq!(ExampleCounters::from_json(&json, "example").unwrap(), a);
/// ```
///
/// Generated structs derive `Debug`, `Clone`, `Copy`, `Default` and
/// `PartialEq`, and every field is `pub`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty [$merge:ident, $parse:ident] ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// Folds another rank's (or table's) counters into this one,
            /// each field by its declared merge rule.
            pub fn merge(&mut self, other: &$name) {
                $( $crate::Counter::$merge(&mut self.$field, &other.$field); )*
            }

            /// The group as a JSON object, fields in declaration order.
            pub fn to_json(&self) -> $crate::Json {
                $crate::Json::obj(vec![
                    $( (stringify!($field), $crate::counters::JsonField::to_json(&self.$field)), )*
                ])
            }

            /// Reads the group from the `section` object of the report
            /// `v`, each field by its declared parse rule.
            ///
            /// # Errors
            /// A required field is missing or mistyped.
            pub fn from_json(v: &$crate::Json, section: &str) -> Result<$name, $crate::JsonError> {
                Ok($name {
                    $( $field: $crate::counters::$parse(v, section, stringify!($field))?, )*
                })
            }
        }

        impl $crate::Counter for $name {
            fn sum(&mut self, other: &Self) {
                self.merge(other);
            }
            fn max(&mut self, other: &Self) {
                self.merge(other);
            }
            fn words(&self, out: &mut Vec<u64>) {
                $( $crate::Counter::words(&self.$field, out); )*
            }
            fn from_words(words: &mut impl Iterator<Item = u64>) -> Option<Self> {
                Some($name {
                    $( $field: $crate::Counter::from_words(words)?, )*
                })
            }
        }
    };
}
