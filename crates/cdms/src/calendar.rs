//! Model calendars and relative-time encoding, mirroring `cdtime`.
//!
//! Climate models rarely run on the real-world calendar: CMIP-class models
//! use 365-day ("noleap") or 360-day calendars. Time axes store *relative*
//! times — "days since 2000-1-1" — which must be decoded against the
//! dataset's calendar to component times (year/month/day/…).

use crate::error::{CdmsError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Supported model calendars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Calendar {
    /// Proleptic Gregorian with real leap years.
    #[default]
    Gregorian,
    /// Every year has 365 days (no leap years). CMIP "noleap".
    NoLeap365,
    /// Every year has 366 days. CMIP "all_leap".
    AllLeap366,
    /// Twelve 30-day months.
    Day360,
}

impl Calendar {
    /// Whether `year` is a leap year under this calendar.
    pub(crate) fn is_leap(&self, year: i64) -> bool {
        match self {
            Calendar::Gregorian => (year % 4 == 0 && year % 100 != 0) || year % 400 == 0,
            Calendar::NoLeap365 | Calendar::Day360 => false,
            Calendar::AllLeap366 => true,
        }
    }

    /// Days in `month` (1-based) of `year`.
    pub(crate) fn days_in_month(&self, year: i64, month: u32) -> u32 {
        if *self == Calendar::Day360 {
            return 30;
        }
        match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 => {
                if self.is_leap(year) {
                    29
                } else {
                    28
                }
            }
            _ => 0,
        }
    }

    /// Days in `year`.
    pub(crate) fn days_in_year(&self, year: i64) -> u32 {
        match self {
            Calendar::Day360 => 360,
            Calendar::NoLeap365 => 365,
            Calendar::AllLeap366 => 366,
            Calendar::Gregorian => {
                if self.is_leap(year) {
                    366
                } else {
                    365
                }
            }
        }
    }

    /// Days from the calendar origin (0001-01-01) to the start of `year`.
    fn days_to_year(&self, year: i64) -> i64 {
        match self {
            Calendar::Day360 => (year - 1) * 360,
            Calendar::NoLeap365 => (year - 1) * 365,
            Calendar::AllLeap366 => (year - 1) * 366,
            Calendar::Gregorian => {
                let y = year - 1;
                y * 365 + y.div_euclid(4) - y.div_euclid(100) + y.div_euclid(400)
            }
        }
    }

    /// Absolute day number (days since 0001-01-01 00:00) of a component time.
    pub(crate) fn absolute_days(&self, t: &CompTime) -> f64 {
        let mut days = self.days_to_year(t.year);
        for m in 1..t.month {
            days += self.days_in_month(t.year, m) as i64;
        }
        days += (t.day as i64) - 1;
        days as f64 + (t.hour as f64) / 24.0 + (t.minute as f64) / 1440.0 + t.second / 86400.0
    }

    /// Inverse of [`Calendar::absolute_days`].
    #[expect(
        clippy::wrong_self_convention,
        reason = "the calendar is the conversion's context; the name pairs with `absolute_days`"
    )]
    pub(crate) fn from_absolute_days(&self, mut days: f64) -> CompTime {
        // Find the year by stepping; fast estimate then refine.
        let approx_len = match self {
            Calendar::Day360 => 360.0,
            Calendar::NoLeap365 => 365.0,
            Calendar::AllLeap366 => 366.0,
            Calendar::Gregorian => 365.2425,
        };
        let mut year = (days / approx_len).floor() as i64 + 1;
        loop {
            let start = self.days_to_year(year) as f64;
            if days < start {
                year -= 1;
            } else if days >= start + self.days_in_year(year) as f64 {
                year += 1;
            } else {
                break;
            }
        }
        days -= self.days_to_year(year) as f64;
        let mut month = 1u32;
        loop {
            let dm = self.days_in_month(year, month) as f64;
            if days < dm || month == 12 {
                break;
            }
            days -= dm;
            month += 1;
        }
        let day = days.floor();
        let mut frac = (days - day) * 24.0;
        let hour = frac.floor();
        frac = (frac - hour) * 60.0;
        let minute = frac.floor();
        let second = (frac - minute) * 60.0;
        CompTime {
            year,
            month,
            day: day as u32 + 1,
            hour: hour as u32,
            minute: minute as u32,
            second,
        }
    }
}

/// A component ("calendar") time: year/month/day hour:minute:second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompTime {
    pub year: i64,
    /// 1-based month.
    pub month: u32,
    /// 1-based day of month.
    pub day: u32,
    pub hour: u32,
    pub minute: u32,
    pub second: f64,
}

impl CompTime {
    /// Midnight on the given date.
    pub(crate) fn date(year: i64, month: u32, day: u32) -> Self {
        CompTime { year, month, day, hour: 0, minute: 0, second: 0.0 }
    }
}

impl fmt::Display for CompTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02} {:02}:{:02}:{:04.1}",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

/// Units of a relative-time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeUnits {
    Seconds,
    Minutes,
    Hours,
    Days,
    Months,
    Years,
}

impl TimeUnits {
    /// Length of one unit in days; months/years are calendar-dependent and
    /// handled separately.
    pub(crate) fn days_per_unit(&self) -> Option<f64> {
        match self {
            TimeUnits::Seconds => Some(1.0 / 86400.0),
            TimeUnits::Minutes => Some(1.0 / 1440.0),
            TimeUnits::Hours => Some(1.0 / 24.0),
            TimeUnits::Days => Some(1.0),
            TimeUnits::Months | TimeUnits::Years => None,
        }
    }
}

/// A parsed relative-time unit string: `"<units> since <date>"`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelTime {
    pub units: TimeUnits,
    pub epoch: CompTime,
}

impl RelTime {
    /// Parses strings like `"days since 2000-01-01"` or
    /// `"hours since 1979-1-1 06:30:00"`.
    pub fn parse(s: &str) -> Result<RelTime> {
        let lower = s.trim().to_ascii_lowercase();
        let mut parts = lower.split_whitespace();
        let unit_word = parts.next().ok_or_else(|| CdmsError::Time("empty units".into()))?;
        let units = match unit_word {
            "second" | "seconds" | "sec" | "secs" | "s" => TimeUnits::Seconds,
            "minute" | "minutes" | "min" | "mins" => TimeUnits::Minutes,
            "hour" | "hours" | "hr" | "hrs" | "h" => TimeUnits::Hours,
            "day" | "days" | "d" => TimeUnits::Days,
            "month" | "months" | "mon" | "mons" => TimeUnits::Months,
            "year" | "years" | "yr" | "yrs" => TimeUnits::Years,
            other => return Err(CdmsError::Time(format!("unknown time unit '{other}'"))),
        };
        let since = parts.next();
        if since != Some("since") {
            return Err(CdmsError::Time(format!("expected 'since' in '{s}'")));
        }
        let date = parts.next().ok_or_else(|| CdmsError::Time(format!("missing date in '{s}'")))?;
        let mut dp = date.split('-');
        let year: i64 = dp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CdmsError::Time(format!("bad year in '{s}'")))?;
        let month: u32 = dp.next().and_then(|v| v.parse().ok()).unwrap_or(1);
        let day: u32 = dp.next().and_then(|v| v.parse().ok()).unwrap_or(1);
        let mut epoch = CompTime::date(year, month, day);
        if let Some(tod) = parts.next() {
            let mut tp = tod.split(':');
            epoch.hour = tp.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            epoch.minute = tp.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            epoch.second = tp.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
        }
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(CdmsError::Time(format!("bad date in '{s}'")));
        }
        Ok(RelTime { units, epoch })
    }

    /// Decodes a relative value to a component time under `cal`.
    pub fn decode(&self, value: f64, cal: Calendar) -> CompTime {
        match self.units {
            TimeUnits::Months => {
                // Whole months step through the calendar; fractional months
                // interpolate within the destination month.
                let whole = value.floor() as i64;
                let frac = value - whole as f64;
                let total = self.epoch.month as i64 - 1 + whole;
                let year = self.epoch.year + total.div_euclid(12);
                let month = (total.rem_euclid(12) + 1) as u32;
                let base = CompTime { year, month, ..self.epoch };
                let days = cal.absolute_days(&base) + frac * cal.days_in_month(year, month) as f64;
                cal.from_absolute_days(days)
            }
            TimeUnits::Years => {
                let whole = value.floor() as i64;
                let frac = value - whole as f64;
                let year = self.epoch.year + whole;
                let base = CompTime { year, ..self.epoch };
                let days = cal.absolute_days(&base) + frac * cal.days_in_year(year) as f64;
                cal.from_absolute_days(days)
            }
            _ => {
                #[expect(
                    clippy::expect_used,
                    reason = "Months/Years are handled by the arms above; every remaining unit is fixed-length"
                )]
                let days_per = self.units.days_per_unit().expect("fixed unit");
                let days = cal.absolute_days(&self.epoch) + value * days_per;
                cal.from_absolute_days(days)
            }
        }
    }

    /// Encodes a component time as a relative value under `cal`.
    /// Month/year units encode whole units from the epoch (CDMS behaviour).
    pub fn encode(&self, t: &CompTime, cal: Calendar) -> f64 {
        match self.units {
            TimeUnits::Months => {
                ((t.year - self.epoch.year) * 12 + t.month as i64 - self.epoch.month as i64) as f64
            }
            TimeUnits::Years => (t.year - self.epoch.year) as f64,
            _ => {
                let d = cal.absolute_days(t) - cal.absolute_days(&self.epoch);
                #[expect(
                    clippy::expect_used,
                    reason = "Months/Years are handled by the arms above; every remaining unit is fixed-length"
                )]
                let days_per = self.units.days_per_unit().expect("fixed unit");
                d / days_per
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gregorian_leap_rules() {
        let c = Calendar::Gregorian;
        assert!(c.is_leap(2000));
        assert!(!c.is_leap(1900));
        assert!(c.is_leap(2004));
        assert!(!c.is_leap(2001));
        assert_eq!(c.days_in_month(2000, 2), 29);
        assert_eq!(c.days_in_month(2001, 2), 28);
        assert_eq!(c.days_in_year(2000), 366);
    }

    #[test]
    fn fixed_calendars() {
        assert_eq!(Calendar::Day360.days_in_month(1999, 2), 30);
        assert_eq!(Calendar::Day360.days_in_year(1999), 360);
        assert_eq!(Calendar::NoLeap365.days_in_year(2000), 365);
        assert_eq!(Calendar::AllLeap366.days_in_month(2001, 2), 29);
    }

    #[test]
    fn absolute_roundtrip_all_calendars() {
        for cal in [
            Calendar::Gregorian,
            Calendar::NoLeap365,
            Calendar::AllLeap366,
            Calendar::Day360,
        ] {
            let t = CompTime { year: 1987, month: 7, day: 15, hour: 6, minute: 30, second: 0.0 };
            let days = cal.absolute_days(&t);
            let back = cal.from_absolute_days(days);
            assert_eq!(back.year, 1987, "{cal:?}");
            assert_eq!(back.month, 7, "{cal:?}");
            assert_eq!(back.day, 15, "{cal:?}");
            assert_eq!(back.hour, 6, "{cal:?}");
        }
    }

    #[test]
    fn parse_units_strings() {
        let r = RelTime::parse("days since 2000-01-01").unwrap();
        assert_eq!(r.units, TimeUnits::Days);
        assert_eq!(r.epoch.year, 2000);
        let r = RelTime::parse("hours since 1979-1-1 06:30:00").unwrap();
        assert_eq!(r.units, TimeUnits::Hours);
        assert_eq!(r.epoch.hour, 6);
        assert_eq!(r.epoch.minute, 30);
        assert!(RelTime::parse("fortnights since 2000-1-1").is_err());
        assert!(RelTime::parse("days 2000-1-1").is_err());
        assert!(RelTime::parse("days since 2000-13-01").is_err());
    }

    #[test]
    fn decode_days_gregorian() {
        let r = RelTime::parse("days since 2000-01-01").unwrap();
        let t = r.decode(31.0, Calendar::Gregorian);
        assert_eq!((t.year, t.month, t.day), (2000, 2, 1));
        // 2000 is a leap year: day 60 is Mar 1
        let t = r.decode(60.0, Calendar::Gregorian);
        assert_eq!((t.year, t.month, t.day), (2000, 3, 1));
        // under noleap, day 59 is already Mar 1
        let t = r.decode(59.0, Calendar::NoLeap365);
        assert_eq!((t.year, t.month, t.day), (2000, 3, 1));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = RelTime::parse("hours since 1979-01-01").unwrap();
        for cal in [Calendar::Gregorian, Calendar::NoLeap365, Calendar::Day360] {
            for v in [0.0, 1.5, 24.0, 8760.0, 100000.25] {
                let t = r.decode(v, cal);
                let back = r.encode(&t, cal);
                assert!((back - v).abs() < 1e-5, "{cal:?} v={v} back={back}");
            }
        }
    }

    #[test]
    fn month_units() {
        let r = RelTime::parse("months since 2000-01-01").unwrap();
        let t = r.decode(13.0, Calendar::NoLeap365);
        assert_eq!((t.year, t.month, t.day), (2001, 2, 1));
        assert_eq!(r.encode(&CompTime::date(2001, 2, 1), Calendar::NoLeap365), 13.0);
        // fractional month lands mid-month
        let t = r.decode(0.5, Calendar::Day360);
        assert_eq!(t.month, 1);
        assert_eq!(t.day, 16);
    }

    #[test]
    fn year_units() {
        let r = RelTime::parse("years since 1950-01-01").unwrap();
        let t = r.decode(55.0, Calendar::Gregorian);
        assert_eq!(t.year, 2005);
        assert_eq!(r.encode(&CompTime::date(2005, 1, 1), Calendar::Gregorian), 55.0);
    }

    #[test]
    fn display_comp_time() {
        let t = CompTime::date(2000, 1, 2);
        assert!(t.to_string().starts_with("2000-01-02"));
    }
}
