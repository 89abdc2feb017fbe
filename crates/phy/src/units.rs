//! Physical units: power in dBm/dB, frequency, and data rate.
//!
//! Keeping these as distinct newtypes prevents the classic link-budget
//! bug of adding two absolute powers as if they were gains.

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// Absolute power referenced to one milliwatt, in decibels (dBm).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dbm(pub f64);

/// A relative power ratio in decibels (gain or loss).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

impl Dbm {
    /// Converts to linear milliwatts.
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates from linear milliwatts; zero power is −∞ dBm (a sum
    /// whose every term was below `f64`'s range, or no term at all).
    ///
    /// # Panics
    ///
    /// Panics if `mw` is negative or NaN.
    pub fn from_milliwatts(mw: f64) -> Self {
        assert!(mw >= 0.0, "power must be non-negative, got {mw} mW");
        Dbm(10.0 * mw.log10())
    }

    /// The raw dBm value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Db {
    /// A zero-gain constant.
    pub const ZERO: Db = Db(0.0);

    /// Converts to a linear ratio.
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates from a linear ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive.
    pub fn from_linear(ratio: f64) -> Self {
        assert!(ratio > 0.0, "ratio must be positive, got {ratio}");
        Db(10.0 * ratio.log10())
    }

    /// The raw dB value.
    pub fn value(self) -> f64 {
        self.0
    }
}

// dBm + dB = dBm (apply gain); dBm - dB = dBm (apply loss);
// dBm - dBm = dB (ratio); dB + dB = dB (cascade).

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl fmt::Debug for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

impl fmt::Debug for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

/// Sums a set of absolute powers in the linear domain.
///
/// Interference powers must be added in milliwatts, never in dB — this
/// helper makes the right thing the easy thing.
pub fn sum_powers(powers: &[Dbm]) -> Option<Dbm> {
    if powers.is_empty() {
        return None;
    }
    let total_mw: f64 = powers.iter().map(|p| p.to_milliwatts()).sum();
    Some(Dbm::from_milliwatts(total_mw))
}

/// Frequency in hertz.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Hertz(pub f64);

impl Hertz {
    /// Creates from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Creates from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Value in hertz.
    pub fn hz(self) -> f64 {
        self.0
    }

    /// Value in megahertz.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// Value in gigahertz.
    pub fn ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Free-space wavelength in metres.
    pub fn wavelength_m(self) -> f64 {
        299_792_458.0 / self.0
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} GHz", self.ghz())
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} MHz", self.mhz())
        } else {
            write!(f, "{:.0} Hz", self.0)
        }
    }
}

/// Data rate in bits per second.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct DataRate(pub f64);

impl DataRate {
    /// Creates from kilobits per second.
    pub fn from_kbps(kbps: f64) -> Self {
        DataRate(kbps * 1e3)
    }

    /// Creates from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        DataRate(mbps * 1e6)
    }

    /// Creates from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        DataRate(gbps * 1e9)
    }

    /// Value in bits per second.
    pub fn bps(self) -> f64 {
        self.0
    }

    /// Value in megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Seconds needed to transmit `bits` at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub fn time_for_bits(self, bits: u64) -> f64 {
        assert!(self.0 > 0.0, "rate must be positive");
        bits as f64 / self.0
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1} kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

/// Thermal noise floor: −174 dBm/Hz + 10·log₁₀(bandwidth) + noise figure.
pub fn thermal_noise(bandwidth: Hertz, noise_figure: Db) -> Dbm {
    Dbm(-174.0 + 10.0 * bandwidth.hz().log10()) + noise_figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_mw_roundtrip() {
        assert!((Dbm(0.0).to_milliwatts() - 1.0).abs() < 1e-12);
        assert!((Dbm(20.0).to_milliwatts() - 100.0).abs() < 1e-9);
        assert!((Dbm::from_milliwatts(100.0).value() - 20.0).abs() < 1e-9);
        assert!((Dbm(-30.0).to_milliwatts() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn zero_milliwatts_is_minus_infinity_dbm() {
        assert_eq!(Dbm::from_milliwatts(0.0).value(), f64::NEG_INFINITY);
        assert_eq!(Dbm(f64::NEG_INFINITY).to_milliwatts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn nan_milliwatts_panic() {
        let _ = Dbm::from_milliwatts(f64::NAN);
    }

    #[test]
    fn db_linear_roundtrip() {
        assert!((Db(3.0103).to_linear() - 2.0).abs() < 1e-4);
        assert!((Db::from_linear(1000.0).value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn unit_arithmetic() {
        let tx = Dbm(20.0);
        let loss = Db(80.0);
        let rx = tx - loss;
        assert!((rx.value() - (-60.0)).abs() < 1e-12);
        let snr = rx - Dbm(-90.0);
        assert!((snr.value() - 30.0).abs() < 1e-12);
        assert_eq!((Db(3.0) + Db(4.0)).value(), 7.0);
        assert_eq!((-Db(5.0)).value(), -5.0);
    }

    #[test]
    fn sum_powers_linear_domain() {
        // Two equal powers sum to +3.01 dB, not +something-in-dB.
        let total = sum_powers(&[Dbm(-60.0), Dbm(-60.0)]).unwrap();
        assert!((total.value() - (-56.9897)).abs() < 1e-3, "{total}");
        assert!(sum_powers(&[]).is_none());
    }

    #[test]
    fn wavelength_at_2_4ghz() {
        let wl = Hertz::from_ghz(2.4).wavelength_m();
        assert!((wl - 0.12491).abs() < 1e-4, "{wl}");
    }

    #[test]
    fn thermal_noise_for_20mhz() {
        // -174 + 10log10(20e6) ≈ -101 dBm, +7 dB NF ≈ -94 dBm.
        let n = thermal_noise(Hertz::from_mhz(20.0), Db(7.0));
        assert!((n.value() - (-93.99)).abs() < 0.1, "{n}");
    }

    #[test]
    fn data_rate_timing() {
        let r = DataRate::from_mbps(54.0);
        let t = r.time_for_bits(12_000);
        assert!((t - 2.2222e-4).abs() < 1e-8);
    }

    #[test]
    fn displays() {
        assert_eq!(DataRate::from_gbps(1.3).to_string(), "1.30 Gbps");
        assert_eq!(DataRate::from_kbps(720.0).to_string(), "720.0 kbps");
        assert_eq!(Hertz::from_ghz(5.0).to_string(), "5.000 GHz");
        assert_eq!(Dbm(15.0).to_string(), "15.0 dBm");
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_power_rejected() {
        let _ = Dbm::from_milliwatts(-1.0);
    }
}
