//! Strongly-typed simulation quantities.
//!
//! All quantities are integer-backed newtypes ([`SimTime`] in microseconds,
//! [`Money`] in nano-dollars, [`Energy`] in nanojoules, …) so that event
//! ordering and accounting stay exact and total: no floating-point drift can
//! reorder the event queue or make two bills that should be equal differ in
//! the last bit.
//!
//! # Examples
//!
//! ```
//! use ntc_simcore::units::{SimTime, SimDuration, DataSize, Bandwidth};
//!
//! let start = SimTime::ZERO;
//! let later = start + SimDuration::from_millis(250);
//! assert_eq!((later - start).as_millis(), 250);
//!
//! // How long does 5 MiB take over a 50 Mbit/s link?
//! let t = Bandwidth::from_megabits_per_sec(50).transfer_time(DataSize::from_mib(5));
//! assert!(t > SimDuration::from_millis(800) && t < SimDuration::from_millis(850));
//! ```

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use ntc_json::ToJson;

macro_rules! impl_scalar_ops {
    ($ty:ident, $inner:ty) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0.checked_add(rhs.0).expect(concat!(stringify!($ty), " overflow in add")))
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                *self = *self + rhs;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0.checked_sub(rhs.0).expect(concat!(stringify!($ty), " underflow in sub")))
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                *self = *self - rhs;
            }
        }
        impl Mul<$inner> for $ty {
            type Output = $ty;
            fn mul(self, rhs: $inner) -> $ty {
                $ty(self.0.checked_mul(rhs).expect(concat!(stringify!($ty), " overflow in mul")))
            }
        }
        impl Div<$inner> for $ty {
            type Output = $ty;
            fn div(self, rhs: $inner) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl core::iter::Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty(0), |a, b| a + b)
            }
        }
    };
}

/// 2^52: every `f64` at or above it is an integer, and adding it to a
/// smaller non-negative `f64` rounds that to an integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Rounds `x` to the nearest integer, ties away from zero: the value of
/// `x.round() as u64` for every `f64`, without the out-of-line call that
/// `f64::round` compiles to on baseline x86-64.
///
/// Below 2^52, `x + 2^52` rounds `x` to the nearest integer, ties to
/// even, and that integer is the sum's mantissa bits. `x` minus it is
/// exact, and is +0.5 exactly when a tie went down, which ties away from
/// zero must round up. From 2^52 on every `f64` is an integer, so the
/// saturating cast is exact there, as it is for the negative inputs and
/// `NaN` that round to 0.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    if (0.0..TWO_52).contains(&x) {
        let shifted = x + TWO_52;
        let even = shifted - TWO_52;
        (shifted.to_bits() - TWO_52.to_bits()) + u64::from(x - even == 0.5)
    } else {
        x as u64
    }
}

/// The signed twin of [`round_to_u64`]: the value of `x.round() as i64`
/// for every `f64`, ties away from zero, saturating at `i64::MIN` and
/// `i64::MAX`, and 0 for `NaN`.
#[inline]
pub fn round_to_i64(x: f64) -> i64 {
    let magnitude = x.abs();
    if magnitude < TWO_52 {
        let rounded = round_to_u64(magnitude) as i64;
        if x < 0.0 {
            -rounded
        } else {
            rounded
        }
    } else {
        x as i64
    }
}

/// `amount * 10^6 / rate`, rounded up, as microseconds: in `u64` when the
/// product fits, as it does for every transfer and execution a run
/// makes, and in `u128` otherwise, saturating at [`SimDuration::MAX`].
#[inline]
fn micros_div_ceil(amount: u64, rate: u64) -> SimDuration {
    match amount.checked_mul(1_000_000) {
        Some(scaled) => SimDuration(scaled.div_ceil(rate)),
        None => {
            let micros = (u128::from(amount) * 1_000_000).div_ceil(u128::from(rate));
            SimDuration(u64::try_from(micros).unwrap_or(u64::MAX))
        }
    }
}

/// An instant on the simulated clock, measured in microseconds since the
/// start of the simulation.
///
/// `SimTime` is an *instant*; the difference between two instants is a
/// [`SimDuration`]. Instants are totally ordered and integer-backed, so they
/// are safe to use as event-queue keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, ToJson)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant `hours` hours after the simulation start.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000_000)
    }

    /// Microseconds since the simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation start, as a float (for display/plots).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, or `None` if `earlier` is later
    /// than `self`.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::checked_duration_since`] to handle that case.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.checked_duration_since(rhs).expect("SimTime subtraction underflow")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

/// A span of simulated time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, ToJson)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be finite and non-negative");
        SimDuration(round_to_u64(secs * 1e6))
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float factor, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl_scalar_ops!(SimDuration, u64);

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < 1_000 {
            write!(f, "{us}us")
        } else if us < 1_000_000 {
            write!(f, "{:.2}ms", us as f64 / 1e3)
        } else if us < 60_000_000 {
            write!(f, "{:.3}s", us as f64 / 1e6)
        } else if us < 3_600_000_000 {
            write!(f, "{:.2}min", us as f64 / 6e7)
        } else {
            write!(f, "{:.2}h", us as f64 / 3.6e9)
        }
    }
}

/// A size of data in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, ToJson)]
pub struct DataSize(u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// Creates a size of `bytes` bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        DataSize(bytes)
    }

    /// Creates a size of `kib` kibibytes (1024 bytes).
    pub const fn from_kib(kib: u64) -> Self {
        DataSize(kib * 1024)
    }

    /// Creates a size of `mib` mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        DataSize(mib * 1024 * 1024)
    }

    /// Creates a size of `gib` gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        DataSize(gib * 1024 * 1024 * 1024)
    }

    /// Size in bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in mebibytes, as a float.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Whether this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float factor, rounding to whole bytes.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        DataSize(round_to_u64(self.0 as f64 * factor))
    }
}

impl_scalar_ops!(DataSize, u64);

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b < 1024 {
            write!(f, "{b}B")
        } else if b < 1024 * 1024 {
            write!(f, "{:.1}KiB", b as f64 / 1024.0)
        } else if b < 1024 * 1024 * 1024 {
            write!(f, "{:.1}MiB", b as f64 / (1024.0 * 1024.0))
        } else {
            write!(f, "{:.2}GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
        }
    }
}

/// A data-transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a rate of `bps` bytes per second.
    pub const fn from_bytes_per_sec(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Creates a rate of `mbit` megabits per second (10^6 bits).
    pub const fn from_megabits_per_sec(mbit: u64) -> Self {
        Bandwidth(mbit * 1_000_000 / 8)
    }

    /// The time needed to move `size` bytes at this rate.
    ///
    /// Rounds up to the next microsecond so a transfer never finishes
    /// "for free". A zero rate yields [`SimDuration::MAX`].
    #[inline]
    pub fn transfer_time(self, size: DataSize) -> SimDuration {
        if size.is_zero() {
            return SimDuration::ZERO;
        }
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        micros_div_ceil(size.as_bytes(), self.0)
    }

    /// Multiplies by a non-negative float factor (e.g. a contention share).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        Bandwidth(round_to_u64(self.0 as f64 * factor))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}Mbit/s", self.0 as f64 * 8.0 / 1e6)
    }
}

/// A quantity of CPU work, measured in cycles.
///
/// Dividing by a [`ClockSpeed`] yields the execution time on that CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a work quantity of `cycles` cycles.
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Creates a work quantity of `mc` megacycles (10^6 cycles).
    pub const fn from_mega(mc: u64) -> Self {
        Cycles(mc * 1_000_000)
    }

    /// Creates a work quantity of `gc` gigacycles (10^9 cycles).
    pub const fn from_giga(gc: u64) -> Self {
        Cycles(gc * 1_000_000_000)
    }

    /// The raw cycle count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Whether this is zero work.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float factor (e.g. per-invocation noise).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        Cycles(round_to_u64(self.0 as f64 * factor))
    }
}

impl_scalar_ops!(Cycles, u64);

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.0;
        if c < 1_000_000 {
            write!(f, "{c}cyc")
        } else if c < 1_000_000_000 {
            write!(f, "{:.1}Mcyc", c as f64 / 1e6)
        } else {
            write!(f, "{:.2}Gcyc", c as f64 / 1e9)
        }
    }
}

/// A CPU execution speed in cycles per second (hertz).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClockSpeed(u64);

impl ClockSpeed {
    /// Creates a speed of `mhz` megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        ClockSpeed(mhz * 1_000_000)
    }

    /// Creates a speed of `ghz_tenths` tenths of a gigahertz
    /// (`from_ghz_tenths(26)` is 2.6 GHz); avoids float construction.
    pub const fn from_ghz_tenths(ghz_tenths: u64) -> Self {
        ClockSpeed(ghz_tenths * 100_000_000)
    }

    /// Speed in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The time this CPU takes to execute `work` cycles.
    ///
    /// Rounds up to the next microsecond. A zero speed yields
    /// [`SimDuration::MAX`].
    #[inline]
    pub fn execution_time(self, work: Cycles) -> SimDuration {
        if work.is_zero() {
            return SimDuration::ZERO;
        }
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        micros_div_ceil(work.get(), self.0)
    }

    /// Multiplies by a non-negative float factor (e.g. a fractional
    /// CPU share granted by a serverless platform).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        ClockSpeed(round_to_u64(self.0 as f64 * factor))
    }
}

impl fmt::Display for ClockSpeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GHz", self.0 as f64 / 1e9)
    }
}

/// An amount of money in nano-dollars (10^-9 USD).
///
/// Signed, so that differences and refunds can be represented. The
/// nano-dollar base unit keeps serverless per-GB-second rates
/// (≈ $0.0000166667) exact enough for billions of invocations while still
/// covering ±9.2 billion dollars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, ToJson)]
pub struct Money(i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Creates an amount of `nanos` nano-dollars.
    pub const fn from_nano_usd(nanos: i64) -> Self {
        Money(nanos)
    }

    /// Creates an amount of `cents` cents.
    pub const fn from_cents(cents: i64) -> Self {
        Money(cents * 10_000_000)
    }

    /// Creates an amount of `usd` whole dollars.
    pub const fn from_usd(usd: i64) -> Self {
        Money(usd * 1_000_000_000)
    }

    /// Creates an amount from fractional dollars, rounding to the nearest
    /// nano-dollar.
    ///
    /// # Panics
    ///
    /// Panics if `usd` is not finite.
    #[inline]
    pub fn from_usd_f64(usd: f64) -> Self {
        assert!(usd.is_finite(), "money must be finite");
        Money(round_to_i64(usd * 1e9))
    }

    /// The amount in nano-dollars.
    pub const fn as_nano_usd(self) -> i64 {
        self.0
    }

    /// The amount in dollars, as a float.
    pub fn as_usd_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies by a float factor, rounding to the nearest nano-dollar.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite(), "factor must be finite");
        Money(round_to_i64(self.0 as f64 * factor))
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0.checked_add(rhs.0).expect("Money overflow"))
    }
}
impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}
impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0.checked_sub(rhs.0).expect("Money underflow"))
    }
}
impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}
impl Mul<i64> for Money {
    type Output = Money;
    fn mul(self, rhs: i64) -> Money {
        Money(self.0.checked_mul(rhs).expect("Money overflow"))
    }
}
impl Div<i64> for Money {
    type Output = Money;
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs)
    }
}
impl core::iter::Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.6}", self.0 as f64 / 1e9)
    }
}

/// An amount of energy in nanojoules.
///
/// One nanojoule is one milliwatt sustained for one microsecond, so
/// `Power(mW) × SimDuration(µs)` lands exactly on this unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, ToJson)]
pub struct Energy(u64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Creates an amount of `j` joules.
    pub const fn from_joules(j: u64) -> Self {
        Energy(j * 1_000_000_000)
    }

    /// The amount in nanojoules.
    pub const fn as_nanojoules(self) -> u64 {
        self.0
    }

    /// The amount in joules, as a float.
    pub fn as_joules_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl_scalar_ops!(Energy, u64);

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nj = self.0;
        if nj < 1_000_000 {
            write!(f, "{:.1}uJ", nj as f64 / 1e3)
        } else if nj < 1_000_000_000 {
            write!(f, "{:.2}mJ", nj as f64 / 1e6)
        } else {
            write!(f, "{:.3}J", nj as f64 / 1e9)
        }
    }
}

/// An electrical power draw in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Power(u64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0);

    /// Creates a draw of `mw` milliwatts.
    pub const fn from_milliwatts(mw: u64) -> Self {
        Power(mw)
    }

    /// Creates a draw of `w` watts.
    pub const fn from_watts(w: u64) -> Self {
        Power(w * 1_000)
    }

    /// The energy consumed by sustaining this draw for `d`.
    #[inline]
    pub fn energy_over(self, d: SimDuration) -> Energy {
        // mW * µs = nJ exactly.
        let nj = self.0 as u128 * d.as_micros() as u128;
        Energy(u64::try_from(nj).unwrap_or(u64::MAX))
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}W", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(3) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 3_500_000);
        assert_eq!((t - SimTime::from_secs(3)).as_millis(), 500);
        assert_eq!(t.checked_duration_since(SimTime::MAX), None);
        assert_eq!(SimTime::ZERO.saturating_duration_since(t), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_secs(1);
    }

    #[test]
    fn duration_display_picks_scale() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimDuration::from_mins(12).to_string(), "12.00min");
        assert_eq!(SimDuration::from_hours(12).to_string(), "12.00h");
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn bandwidth_transfer_time_rounds_up() {
        let bw = Bandwidth::from_bytes_per_sec(1_000_000);
        assert_eq!(bw.transfer_time(DataSize::from_bytes(1)).as_micros(), 1);
        assert_eq!(bw.transfer_time(DataSize::from_bytes(1_000_000)).as_secs(), 1);
        assert_eq!(bw.transfer_time(DataSize::ZERO), SimDuration::ZERO);
        assert_eq!(
            Bandwidth::from_bytes_per_sec(0).transfer_time(DataSize::from_kib(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn megabit_conversion() {
        assert_eq!(Bandwidth::from_megabits_per_sec(8), Bandwidth::from_bytes_per_sec(1_000_000));
    }

    #[test]
    fn clock_speed_execution_time() {
        let cpu = ClockSpeed::from_ghz_tenths(10); // 1 GHz
        assert_eq!(cpu.execution_time(Cycles::from_mega(1)).as_millis(), 1);
        assert_eq!(cpu.execution_time(Cycles::ZERO), SimDuration::ZERO);
        assert_eq!(ClockSpeed::from_mhz(0).execution_time(Cycles::new(1)), SimDuration::MAX);
        // Rounds up: 1 cycle at 1 GHz is 1ns but must cost at least 1µs.
        assert_eq!(cpu.execution_time(Cycles::new(1)).as_micros(), 1);
    }

    #[test]
    fn money_arithmetic_and_display() {
        let m = Money::from_usd(2) + Money::from_cents(50);
        assert_eq!(m.as_nano_usd(), 2_500_000_000);
        assert_eq!(m.to_string(), "$2.500000");
        assert_eq!((m - Money::from_usd(3)).as_nano_usd(), -500_000_000);
        assert_eq!(m.mul_f64(2.0).as_usd_f64(), 5.0);
    }

    #[test]
    fn power_energy_units_align() {
        // 1 W for 1 s = 1 J.
        let e = Power::from_watts(1).energy_over(SimDuration::from_secs(1));
        assert_eq!(e, Energy::from_joules(1));
    }

    #[test]
    fn sums_fold_correctly() {
        let d: SimDuration = (0..4).map(|_| SimDuration::from_secs(1)).sum();
        assert_eq!(d.as_secs(), 4);
        let m: Money = (0..4).map(|_| Money::from_cents(25)).sum();
        assert_eq!(m, Money::from_usd(1));
    }

    /// `round_to_u64` and `round_to_i64` against the casts of
    /// `f64::round` they replace, bit pattern by bit pattern.
    fn assert_rounds_like_std(x: f64) {
        assert_eq!(round_to_u64(x), x.round() as u64, "round_to_u64({x:e}) [{:#x}]", x.to_bits());
        assert_eq!(round_to_i64(x), x.round() as i64, "round_to_i64({x:e}) [{:#x}]", x.to_bits());
    }

    /// `x` and its neighbours a few ulps either side, in both signs.
    fn around(x: f64) -> impl Iterator<Item = f64> {
        (-4_i64..=4).flat_map(move |d| {
            let y = f64::from_bits(x.to_bits().wrapping_add_signed(d));
            [y, -y]
        })
    }

    #[test]
    fn rounding_matches_std_on_ties_and_the_largest_non_tie() {
        for k in 0..100_000u64 {
            for x in [k as f64 + 0.5, k as f64 + 0.25, k as f64 + 0.75] {
                assert_rounds_like_std(x);
                assert_rounds_like_std(-x);
            }
        }
        // The largest double below one half, which `(x + 0.5).floor()`
        // rounds to 1.
        let below_half = 0.499_999_999_999_999_94;
        assert_eq!(below_half, f64::from_bits(0.5f64.to_bits() - 1));
        for x in around(below_half).chain(around(0.5)).chain(around(1.5)) {
            assert_rounds_like_std(x);
        }
    }

    #[test]
    fn rounding_matches_std_at_the_integer_and_range_boundaries() {
        for p in [52, 53, 63, 64, 65, 100, 1023] {
            for x in around(2f64.powi(p)) {
                assert_rounds_like_std(x);
            }
        }
        // Ties just below 2^52, where the fraction's last bit is 1/2.
        for k in 1..1_000u64 {
            assert_rounds_like_std(TWO_52 - k as f64 + 0.5);
            assert_rounds_like_std(-(TWO_52 - k as f64 + 0.5));
        }
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            u64::MAX as f64,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ] {
            for y in around(x) {
                assert_rounds_like_std(y);
            }
        }
        assert_eq!(round_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(round_to_i64(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(round_to_u64(-3.7), 0);
        assert_eq!(round_to_i64(f64::NAN), 0);
    }

    #[test]
    fn rounding_matches_std_on_a_million_random_doubles() {
        let mut rng = crate::rng::RngStream::root(27).derive("round");
        for i in 0..1_000_000u32 {
            // Alternate raw bit patterns (every sign, exponent, NaN and
            // infinity) with magnitudes the simulation actually rounds.
            let x = match i % 4 {
                0 => f64::from_bits(rng.next_u64()),
                1 => rng.uniform() * 1e7,
                2 => (rng.uniform() - 0.5) * 1e13,
                _ => (rng.next_u64() >> 11) as f64 / 1024.0,
            };
            assert_rounds_like_std(x);
        }
    }

    /// `micros_div_ceil`'s `u128` reference, for every operand.
    fn wide_micros(amount: u64, rate: u64) -> u64 {
        let micros = (u128::from(amount) * 1_000_000).div_ceil(u128::from(rate));
        u64::try_from(micros).unwrap_or(u64::MAX)
    }

    #[test]
    fn narrow_division_matches_the_wide_one_across_the_overflow_boundary() {
        let fits = u64::MAX / 1_000_000;
        assert!(
            fits.checked_mul(1_000_000).is_some() && (fits + 1).checked_mul(1_000_000).is_none()
        );
        let amounts =
            [1, 999_999, 1_000_001, fits - 1, fits, fits + 1, fits + 2, u64::MAX / 2, u64::MAX];
        let rates = [1, 2, 3, 7, 125_000, 1_000_000, 1_000_001, 6_250_000, fits, u64::MAX];
        for &amount in &amounts {
            for &rate in &rates {
                let want = wide_micros(amount, rate);
                let size = DataSize::from_bytes(amount);
                assert_eq!(
                    Bandwidth::from_bytes_per_sec(rate).transfer_time(size).as_micros(),
                    want,
                    "{amount} B at {rate} B/s"
                );
                let work = Cycles::new(amount);
                assert_eq!(
                    ClockSpeed(rate).execution_time(work).as_micros(),
                    want,
                    "{amount} cycles at {rate} Hz"
                );
            }
        }
        let mut rng = crate::rng::RngStream::root(27).derive("div");
        for _ in 0..100_000 {
            // Amounts on both sides of the boundary, rates of any width.
            let amount = rng.next_u64() >> rng.uniform_range(0, 64);
            let rate = (rng.next_u64() >> rng.uniform_range(0, 64)).max(1);
            assert_eq!(micros_div_ceil(amount, rate).as_micros(), wide_micros(amount, rate));
        }
    }

    #[test]
    fn mul_f64_scaling() {
        assert_eq!(Cycles::from_mega(100).mul_f64(1.5), Cycles::from_mega(150));
        assert_eq!(DataSize::from_kib(2).mul_f64(0.5), DataSize::from_kib(1));
        assert_eq!(
            Bandwidth::from_bytes_per_sec(100).mul_f64(0.25),
            Bandwidth::from_bytes_per_sec(25)
        );
    }
}
