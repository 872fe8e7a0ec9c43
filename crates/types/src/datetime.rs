//! Civil (proleptic Gregorian) dates, times and intervals.
//!
//! Date functions are one of the paper's bug-heavy categories (Figure 1), and
//! several discovered bugs (e.g. the MySQL `date` SEGV found via P3.3) live in
//! date parsing and arithmetic. This module implements the calendar from
//! first principles — days-from-epoch conversion, formatting, parsing and
//! component arithmetic — without any external time crate.

use std::fmt;

/// Errors from date/time parsing and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DateError {
    /// The textual input did not match a supported date/time format.
    Syntax(String),
    /// Components were individually numeric but out of range (month 13, ...).
    OutOfRange(String),
}

/// The prefix of a [`DateError::Syntax`] message.
const SYNTAX_PREFIX: &str = "invalid date/time literal: ";

impl fmt::Display for DateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DateError::Syntax(s) => write!(f, "{SYNTAX_PREFIX}{s}"),
            DateError::OutOfRange(s) => write!(f, "date/time out of range: {s}"),
        }
    }
}

impl std::error::Error for DateError {}

/// A failed text parse that borrows the text it rejected, so the caster
/// copies a long rejected argument once, straight into its own message,
/// instead of into a [`DateError`] first.
#[derive(Debug)]
pub(crate) enum ParseError<'a> {
    /// The (trimmed) text matched no supported format.
    Syntax(&'a str),
    /// The components were out of range.
    Range(DateError),
}

impl ParseError<'_> {
    fn into_error(self) -> DateError {
        match self {
            ParseError::Syntax(s) => DateError::Syntax(s.to_string()),
            ParseError::Range(e) => e,
        }
    }

    /// The message the matching [`DateError`] displays, allocated once.
    pub(crate) fn message(&self) -> String {
        match self {
            ParseError::Syntax(s) => [SYNTAX_PREFIX, s].concat(),
            ParseError::Range(e) => e.to_string(),
        }
    }
}

/// Where the `-`/`/` separators of a date's text are: the first two
/// positions and how many there are (counting stops at 3, one too many).
#[derive(Default)]
struct DateSeparators {
    at: [usize; 2],
    count: usize,
}

impl DateSeparators {
    fn push(&mut self, i: usize) {
        if self.count < 2 {
            self.at[self.count] = i;
        }
        self.count = (self.count + 1).min(3);
    }
}

/// Reads one date's text in one pass: its separators and, when
/// `split_time` holds, the position of the first `' '`/`'T'`, which ends
/// the date. Without a time split the pass stops at the third separator.
///
/// The text is read in 64-byte blocks; a block holding none of the bytes
/// looked for (every block of `REPEAT('202', 100000)`) is tested without a
/// branch per byte and skipped.
fn scan_date(s: &str, split_time: bool) -> (DateSeparators, Option<usize>) {
    let mut seps = DateSeparators::default();
    for (block_no, block) in s.as_bytes().chunks(64).enumerate() {
        let mut hits = 0u8;
        for &b in block {
            let split = (b == b' ') | (b == b'T');
            hits |= u8::from((b == b'-') | (b == b'/') | (split_time & split));
        }
        if hits == 0 {
            continue;
        }
        for (i, &b) in block.iter().enumerate() {
            match b {
                b'-' | b'/' => {
                    seps.push(block_no * 64 + i);
                    if seps.count == 3 && !split_time {
                        return (seps, None);
                    }
                }
                b' ' | b'T' if split_time => return (seps, Some(block_no * 64 + i)),
                _ => {}
            }
        }
    }
    (seps, None)
}

/// A calendar date in the proleptic Gregorian calendar.
///
/// Supported range: years 1..=9999 (the usual SQL `DATE` range).
///
/// # Examples
///
/// ```
/// use soft_types::datetime::Date;
/// let d = Date::new(2024, 2, 29).unwrap();
/// assert_eq!(d.to_string(), "2024-02-29");
/// assert_eq!(d.add_days(1).unwrap().to_string(), "2024-03-01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

/// A time of day with microsecond precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time {
    hour: u8,
    minute: u8,
    second: u8,
    micros: u32,
}

/// A combined date and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DateTime {
    /// The date component.
    pub date: Date,
    /// The time-of-day component.
    pub time: Time,
}

/// A mixed-unit interval, as used by `DATE_ADD(.. INTERVAL ..)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Interval {
    /// Whole months (years fold into this).
    pub months: i64,
    /// Whole days.
    pub days: i64,
    /// Sub-day part in microseconds.
    pub micros: i64,
}

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// True if `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month of the given year.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    if month == 2 && is_leap_year(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

impl Date {
    /// Minimum supported date.
    pub const MIN: Date = Date { year: 1, month: 1, day: 1 };
    /// Maximum supported date.
    pub const MAX: Date = Date { year: 9999, month: 12, day: 31 };

    /// Creates a date, validating all components.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Date, DateError> {
        if !(1..=9999).contains(&year) {
            return Err(DateError::OutOfRange(format!("year {year}")));
        }
        if !(1..=12).contains(&month) {
            return Err(DateError::OutOfRange(format!("month {month}")));
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(DateError::OutOfRange(format!("day {day}")));
        }
        Ok(Date { year, month, day })
    }

    /// The year component.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// The month component (1-12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// The day-of-month component (1-31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Days since 0001-01-01 (which is day 0).
    pub fn days_from_epoch(&self) -> i64 {
        let y = self.year as i64 - 1;
        let mut days = y * 365 + y / 4 - y / 100 + y / 400;
        for m in 1..self.month {
            days += days_in_month(self.year, m) as i64;
        }
        days + self.day as i64 - 1
    }

    /// Builds a date from days since 0001-01-01.
    pub fn from_days_from_epoch(mut days: i64) -> Result<Date, DateError> {
        if days < 0 {
            return Err(DateError::OutOfRange(format!("{days} days")));
        }
        // 400-year cycle = 146097 days.
        let cycles = days / 146097;
        days %= 146097;
        let mut year = (cycles * 400 + 1) as i32;
        loop {
            let ylen = if is_leap_year(year) { 366 } else { 365 };
            if days < ylen {
                break;
            }
            days -= ylen;
            year += 1;
            if year > 9999 {
                return Err(DateError::OutOfRange("beyond year 9999".into()));
            }
        }
        let mut month = 1u8;
        loop {
            let mlen = days_in_month(year, month) as i64;
            if days < mlen {
                break;
            }
            days -= mlen;
            month += 1;
        }
        Date::new(year, month, days as u8 + 1)
    }

    /// Day of week, 0 = Monday ... 6 = Sunday (ISO ordering).
    pub fn weekday(&self) -> u8 {
        // 0001-01-01 was a Monday in the proleptic Gregorian calendar.
        (self.days_from_epoch().rem_euclid(7)) as u8
    }

    /// Day of year, 1-based.
    pub fn day_of_year(&self) -> u16 {
        let mut doy = self.day as u16;
        for m in 1..self.month {
            doy += days_in_month(self.year, m) as u16;
        }
        doy
    }

    /// ISO-8601 week number (1-53).
    pub fn iso_week(&self) -> u8 {
        // Week containing the year's first Thursday is week 1.
        let doy = self.day_of_year() as i64;
        let wd = self.weekday() as i64; // 0 = Monday
        let week = (doy - wd + 9) / 7;
        if week < 1 {
            // Belongs to the last week of the previous year.
            
            Date::new(self.year - 1, 12, 31).map(|d| d.iso_week()).unwrap_or(52)
        } else if week > 52 {
            // Might be week 1 of next year.
            let dec31 = Date::new(self.year, 12, 31).expect("dec 31 is valid");
            let last_wd = dec31.weekday();
            if last_wd < 3 && self.day_of_year() as i64 > 363 - last_wd as i64 {
                1
            } else {
                week as u8
            }
        } else {
            week as u8
        }
    }

    /// Quarter of the year (1-4).
    pub fn quarter(&self) -> u8 {
        (self.month - 1) / 3 + 1
    }

    /// Last day of this date's month.
    pub fn last_day(&self) -> Date {
        Date {
            year: self.year,
            month: self.month,
            day: days_in_month(self.year, self.month),
        }
    }

    /// Adds (or subtracts) days, checking range.
    pub fn add_days(&self, days: i64) -> Result<Date, DateError> {
        let total = self
            .days_from_epoch()
            .checked_add(days)
            .ok_or_else(|| DateError::OutOfRange("day overflow".into()))?;
        Date::from_days_from_epoch(total)
    }

    /// Adds calendar months, clamping the day to the target month's length
    /// (the standard SQL `DATE_ADD` behaviour: Jan 31 + 1 month = Feb 28/29).
    pub fn add_months(&self, months: i64) -> Result<Date, DateError> {
        let zero_based = self.year as i64 * 12 + (self.month as i64 - 1) + months;
        let year = zero_based.div_euclid(12);
        let month = zero_based.rem_euclid(12) as u8 + 1;
        if !(1..=9999).contains(&year) {
            return Err(DateError::OutOfRange(format!("year {year}")));
        }
        let year = year as i32;
        let day = self.day.min(days_in_month(year, month));
        Date::new(year, month, day)
    }

    /// Parses `YYYY-MM-DD` (also accepting `/` separators and 1-2 digit
    /// month/day, as MySQL does).
    pub fn parse(s: &str) -> Result<Date, DateError> {
        Date::parse_text(s).map_err(ParseError::into_error)
    }

    pub(crate) fn parse_text(s: &str) -> Result<Date, ParseError<'_>> {
        let s = s.trim();
        Date::from_fields(s, &scan_date(s, false).0)
    }

    /// The date whose trimmed text is `s`, with `s`'s separators.
    fn from_fields<'a>(s: &'a str, seps: &DateSeparators) -> Result<Date, ParseError<'a>> {
        if seps.count != 2 {
            return Err(ParseError::Syntax(s));
        }
        let [a, b] = seps.at;
        let fields = (s[..a].parse(), s[a + 1..b].parse(), s[b + 1..].parse());
        let (Ok(year), Ok(month), Ok(day)) = fields else {
            return Err(ParseError::Syntax(s));
        };
        Date::new(year, month, day).map_err(ParseError::Range)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl Time {
    /// Midnight.
    pub const MIDNIGHT: Time = Time { hour: 0, minute: 0, second: 0, micros: 0 };

    /// Creates a time of day, validating all components.
    pub fn new(hour: u8, minute: u8, second: u8, micros: u32) -> Result<Time, DateError> {
        if hour > 23 || minute > 59 || second > 59 || micros > 999_999 {
            return Err(DateError::OutOfRange(format!("{hour}:{minute}:{second}.{micros}")));
        }
        Ok(Time { hour, minute, second, micros })
    }

    /// The hour (0-23).
    pub fn hour(&self) -> u8 {
        self.hour
    }

    /// The minute (0-59).
    pub fn minute(&self) -> u8 {
        self.minute
    }

    /// The second (0-59).
    pub fn second(&self) -> u8 {
        self.second
    }

    /// The microsecond part (0-999999).
    pub fn micros(&self) -> u32 {
        self.micros
    }

    /// Microseconds since midnight.
    pub fn micros_from_midnight(&self) -> i64 {
        ((self.hour as i64 * 60 + self.minute as i64) * 60 + self.second as i64) * 1_000_000
            + self.micros as i64
    }

    /// Builds a time from microseconds since midnight (must be in range).
    pub fn from_micros_from_midnight(us: i64) -> Result<Time, DateError> {
        if !(0..86_400_000_000).contains(&us) {
            return Err(DateError::OutOfRange(format!("{us} microseconds")));
        }
        let micros = (us % 1_000_000) as u32;
        let total_secs = us / 1_000_000;
        Time::new(
            (total_secs / 3600) as u8,
            ((total_secs / 60) % 60) as u8,
            (total_secs % 60) as u8,
            micros,
        )
    }

    /// Parses `HH:MM:SS[.ffffff]` (also `HH:MM`).
    pub fn parse(s: &str) -> Result<Time, DateError> {
        Time::parse_text(s).map_err(ParseError::into_error)
    }

    pub(crate) fn parse_text(s: &str) -> Result<Time, ParseError<'_>> {
        let s = s.trim();
        let syntax = || ParseError::Syntax(s);
        let (main, frac) = match s.split_once('.') {
            Some((m, f)) => (m, Some(f)),
            None => (s, None),
        };
        // Two or three `:`-separated fields: at most two colons.
        let (hour, rest) = main.split_once(':').ok_or_else(syntax)?;
        let (minute, second) = match rest.split_once(':') {
            Some((_, third)) if third.contains(':') => return Err(syntax()),
            Some((minute, second)) => (minute, Some(second)),
            None => (rest, None),
        };
        let hour: u8 = hour.parse().map_err(|_| syntax())?;
        let minute: u8 = minute.parse().map_err(|_| syntax())?;
        let second: u8 = match second {
            Some(sec) => sec.parse().map_err(|_| syntax())?,
            None => 0,
        };
        let micros = match frac {
            None => 0,
            Some(f) => {
                if f.is_empty() || f.len() > 6 || !f.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(syntax());
                }
                let mut v: u32 = f.parse().map_err(|_| syntax())?;
                for _ in f.len()..6 {
                    v *= 10;
                }
                v
            }
        };
        Time::new(hour, minute, second, micros).map_err(ParseError::Range)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}:{:02}", self.hour, self.minute, self.second)?;
        if self.micros > 0 {
            write!(f, ".{:06}", self.micros)?;
        }
        Ok(())
    }
}

impl DateTime {
    /// Creates a datetime from parts.
    pub fn new(date: Date, time: Time) -> DateTime {
        DateTime { date, time }
    }

    /// Microseconds since 0001-01-01 00:00:00.
    pub fn micros_from_epoch(&self) -> i64 {
        self.date.days_from_epoch() * 86_400_000_000 + self.time.micros_from_midnight()
    }

    /// Builds a datetime from microseconds since 0001-01-01 00:00:00.
    pub fn from_micros_from_epoch(us: i64) -> Result<DateTime, DateError> {
        let days = us.div_euclid(86_400_000_000);
        let rem = us.rem_euclid(86_400_000_000);
        Ok(DateTime {
            date: Date::from_days_from_epoch(days)?,
            time: Time::from_micros_from_midnight(rem)?,
        })
    }

    /// Adds an interval, applying months first (clamping), then days, then
    /// the sub-day part — the standard SQL interval-addition order.
    pub fn add_interval(&self, iv: &Interval) -> Result<DateTime, DateError> {
        let date = self.date.add_months(iv.months)?.add_days(iv.days)?;
        let base = DateTime { date, time: self.time };
        let us = base
            .micros_from_epoch()
            .checked_add(iv.micros)
            .ok_or_else(|| DateError::OutOfRange("interval overflow".into()))?;
        DateTime::from_micros_from_epoch(us)
    }

    /// Parses `YYYY-MM-DD[ HH:MM:SS[.ffffff]]` (also `T` separator).
    pub fn parse(s: &str) -> Result<DateTime, DateError> {
        DateTime::parse_text(s).map_err(ParseError::into_error)
    }

    /// [`DateTime::parse`] in one pass over the date: the same scan finds
    /// the date's separators and the `' '`/`'T'` that ends it.
    pub(crate) fn parse_text(s: &str) -> Result<DateTime, ParseError<'_>> {
        let s = s.trim();
        let (seps, split) = scan_date(s, true);
        // `s` starts on a non-space, and a trailing space holds no
        // separator, so trimming the date moves none of them.
        let date = Date::from_fields(s[..split.unwrap_or(s.len())].trim(), &seps)?;
        let time = match split {
            None => Time::MIDNIGHT,
            Some(i) => Time::parse_text(&s[i + 1..])?,
        };
        Ok(DateTime { date, time })
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.date, self.time)
    }
}

impl Interval {
    /// An interval of whole days.
    pub fn days(days: i64) -> Interval {
        Interval { months: 0, days, micros: 0 }
    }

    /// An interval of whole months.
    pub fn months(months: i64) -> Interval {
        Interval { months, days: 0, micros: 0 }
    }

    /// An interval of seconds.
    pub fn seconds(seconds: i64) -> Interval {
        Interval { months: 0, days: 0, micros: seconds.saturating_mul(1_000_000) }
    }

    /// Negates every component.
    pub fn neg(&self) -> Interval {
        Interval { months: -self.months, days: -self.days, micros: -self.micros }
    }

    /// Parses SQL interval syntax: a quantity plus a unit keyword, e.g.
    /// `5 DAY`, `-3 MONTH`, `2 HOUR`.
    pub fn parse(quantity: i64, unit: &str) -> Result<Interval, DateError> {
        let unit = unit.to_ascii_uppercase();
        Ok(match unit.as_str() {
            "MICROSECOND" => Interval { months: 0, days: 0, micros: quantity },
            "SECOND" => Interval::seconds(quantity),
            "MINUTE" => Interval::seconds(quantity.saturating_mul(60)),
            "HOUR" => Interval::seconds(quantity.saturating_mul(3600)),
            "DAY" => Interval::days(quantity),
            "WEEK" => Interval::days(quantity.saturating_mul(7)),
            "MONTH" => Interval::months(quantity),
            "QUARTER" => Interval::months(quantity.saturating_mul(3)),
            "YEAR" => Interval::months(quantity.saturating_mul(12)),
            _ => return Err(DateError::Syntax(format!("unknown interval unit {unit}"))),
        })
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} months {} days {} us", self.months, self.days, self.micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_rng::Rng;

    /// Date/time text parsing before it scanned once: `DateTime::parse`
    /// searched for the time split and then split the date into a `Vec`.
    mod reference {
        use super::super::{Date, DateError, DateTime, Time};

        pub fn date(s: &str) -> Result<Date, DateError> {
            let s = s.trim();
            let parts: Vec<&str> = s.split(['-', '/']).collect();
            if parts.len() != 3 {
                return Err(DateError::Syntax(s.to_string()));
            }
            let year: i32 = parts[0]
                .parse()
                .map_err(|_| DateError::Syntax(s.to_string()))?;
            let month: u8 = parts[1]
                .parse()
                .map_err(|_| DateError::Syntax(s.to_string()))?;
            let day: u8 = parts[2]
                .parse()
                .map_err(|_| DateError::Syntax(s.to_string()))?;
            Date::new(year, month, day)
        }

        pub fn time(s: &str) -> Result<Time, DateError> {
            let s = s.trim();
            let (main, frac) = match s.split_once('.') {
                Some((m, f)) => (m, Some(f)),
                None => (s, None),
            };
            let parts: Vec<&str> = main.split(':').collect();
            if parts.len() != 2 && parts.len() != 3 {
                return Err(DateError::Syntax(s.to_string()));
            }
            let hour: u8 = parts[0]
                .parse()
                .map_err(|_| DateError::Syntax(s.to_string()))?;
            let minute: u8 = parts[1]
                .parse()
                .map_err(|_| DateError::Syntax(s.to_string()))?;
            let second: u8 = if parts.len() == 3 {
                parts[2]
                    .parse()
                    .map_err(|_| DateError::Syntax(s.to_string()))?
            } else {
                0
            };
            let micros = match frac {
                None => 0,
                Some(f) => {
                    if f.is_empty() || f.len() > 6 || !f.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(DateError::Syntax(s.to_string()));
                    }
                    let mut v: u32 = f.parse().map_err(|_| DateError::Syntax(s.to_string()))?;
                    for _ in f.len()..6 {
                        v *= 10;
                    }
                    v
                }
            };
            Time::new(hour, minute, second, micros)
        }

        pub fn datetime(s: &str) -> Result<DateTime, DateError> {
            let s = s.trim();
            match s.find([' ', 'T']) {
                None => Ok(DateTime {
                    date: date(s)?,
                    time: Time::MIDNIGHT,
                }),
                Some(i) => Ok(DateTime {
                    date: date(&s[..i])?,
                    time: time(&s[i + 1..])?,
                }),
            }
        }
    }

    /// Date-ish text: half of it dates and datetimes built field by field
    /// (with out-of-range fields), the rest digits, every separator the
    /// parsers split on, spaces, signs and a multi-byte space in random
    /// order.
    fn random_text(rng: &mut Rng) -> String {
        const PIECES: [&str; 16] = [
            "2024", "1", "12", "31", "0", "-", "/", " ", "T", ":", ".", "5", "+", "\u{3000}", "x",
            "99999",
        ];
        let mut pick = |options: &[&'static str]| *rng.choose(options).expect("options");
        if !pick(&["field", "noise"]).starts_with('f') {
            let n = rng.gen_range(0..12usize);
            return (0..n)
                .map(|_| *rng.choose(&PIECES).expect("pieces"))
                .collect();
        }
        let mut t = String::new();
        for part in [
            pick(&[" ", "", "", "+"]),
            pick(&["2024", "1", "9999", "10000", "0"]),
            pick(&["-", "/", "-"]),
            pick(&["2", "02", "12", "13"]),
            pick(&["-", "/", "-", ":"]),
            pick(&["29", "30", "1", "32", "31"]),
        ] {
            t.push_str(part);
        }
        if pick(&["time", "", ""]) == "time" {
            for part in [
                pick(&[" ", "T", "  "]),
                pick(&["12", "23", "24", "7"]),
                pick(&[":"]),
                pick(&["34", "59", "60"]),
                pick(&["", ":56", ":61", ":1:2"]),
                pick(&["", "", ".5", ".123456", ".1234567", "."]),
            ] {
                t.push_str(part);
            }
        }
        t.push_str(pick(&["", "", " ", "\u{3000}"]));
        t
    }

    #[test]
    fn one_scan_parsers_match_the_reference() {
        let mut rng = Rng::seed_from_u64(0x4441_5445);
        let mut texts: Vec<String> = (0..20_000).map(|_| random_text(&mut rng)).collect();
        texts.extend(
            [
                "2024-03-05",
                " 2024/3/5 12:34:56.5 ",
                "2024-02-30",
                "12:60",
                "2024-01-01T00:00",
            ]
            .map(String::from),
        );
        texts.push("202".repeat(100_000));
        texts.push("-1-".repeat(1_000));
        let mut parsed = 0;
        for t in &texts {
            assert_eq!(Date::parse(t), reference::date(t), "{t:?}");
            assert_eq!(Time::parse(t), reference::time(t), "{t:?}");
            let new = DateTime::parse(t);
            assert_eq!(new, reference::datetime(t), "{t:?}");
            // The caster's message is the error's display, built once.
            let message = DateTime::parse_text(t).map_err(|e| e.message());
            assert_eq!(message, new.clone().map_err(|e| e.to_string()), "{t:?}");
            parsed += usize::from(new.is_ok());
        }
        assert!(parsed > 50, "only {parsed} texts parsed");
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2024));
        assert!(!is_leap_year(2023));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2000));
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2024, 2, 29).is_ok());
        assert!(Date::new(2023, 2, 29).is_err());
        assert!(Date::new(2023, 13, 1).is_err());
        assert!(Date::new(2023, 0, 1).is_err());
        assert!(Date::new(0, 1, 1).is_err());
        assert!(Date::new(10000, 1, 1).is_err());
    }

    #[test]
    fn epoch_roundtrip() {
        for (y, m, d) in [(1, 1, 1), (1970, 1, 1), (2000, 2, 29), (9999, 12, 31), (2026, 7, 6)] {
            let date = Date::new(y, m, d).unwrap();
            let days = date.days_from_epoch();
            assert_eq!(Date::from_days_from_epoch(days).unwrap(), date);
        }
    }

    #[test]
    fn weekday_known_values() {
        // 2026-07-06 is a Monday.
        assert_eq!(Date::new(2026, 7, 6).unwrap().weekday(), 0);
        // 2000-01-01 was a Saturday.
        assert_eq!(Date::new(2000, 1, 1).unwrap().weekday(), 5);
    }

    #[test]
    fn add_days_crosses_boundaries() {
        let d = Date::new(2023, 12, 31).unwrap();
        assert_eq!(d.add_days(1).unwrap().to_string(), "2024-01-01");
        assert_eq!(d.add_days(-365).unwrap().to_string(), "2022-12-31");
        assert!(Date::MAX.add_days(1).is_err());
        assert!(Date::MIN.add_days(-1).is_err());
    }

    #[test]
    fn add_months_clamps_day() {
        let d = Date::new(2024, 1, 31).unwrap();
        assert_eq!(d.add_months(1).unwrap().to_string(), "2024-02-29");
        assert_eq!(d.add_months(13).unwrap().to_string(), "2025-02-28");
        assert_eq!(d.add_months(-1).unwrap().to_string(), "2023-12-31");
    }

    #[test]
    fn date_parsing() {
        assert_eq!(Date::parse("2024-03-05").unwrap().to_string(), "2024-03-05");
        assert_eq!(Date::parse("2024/3/5").unwrap().to_string(), "2024-03-05");
        assert!(Date::parse("2024-13-05").is_err());
        assert!(Date::parse("hello").is_err());
        assert!(Date::parse("").is_err());
    }

    #[test]
    fn time_parsing_and_display() {
        assert_eq!(Time::parse("12:34:56").unwrap().to_string(), "12:34:56");
        assert_eq!(Time::parse("12:34").unwrap().to_string(), "12:34:00");
        assert_eq!(Time::parse("01:02:03.5").unwrap().to_string(), "01:02:03.500000");
        assert!(Time::parse("25:00:00").is_err());
        assert!(Time::parse("12:60:00").is_err());
        assert!(Time::parse("12:00:00.1234567").is_err());
    }

    #[test]
    fn datetime_roundtrip_and_interval() {
        let dt = DateTime::parse("2024-02-28 23:30:00").unwrap();
        let plus = dt.add_interval(&Interval::seconds(3600)).unwrap();
        assert_eq!(plus.to_string(), "2024-02-29 00:30:00");
        let plus_month = dt.add_interval(&Interval::months(1)).unwrap();
        assert_eq!(plus_month.to_string(), "2024-03-28 23:30:00");
        let us = dt.micros_from_epoch();
        assert_eq!(DateTime::from_micros_from_epoch(us).unwrap(), dt);
    }

    #[test]
    fn interval_units() {
        assert_eq!(Interval::parse(2, "WEEK").unwrap(), Interval::days(14));
        assert_eq!(Interval::parse(3, "YEAR").unwrap(), Interval::months(36));
        assert!(Interval::parse(1, "FORTNIGHT").is_err());
    }

    #[test]
    fn iso_week_samples() {
        // 2024-01-01 is a Monday -> week 1.
        assert_eq!(Date::new(2024, 1, 1).unwrap().iso_week(), 1);
        // 2023-01-01 is a Sunday -> ISO week 52 of 2022.
        assert_eq!(Date::new(2023, 1, 1).unwrap().iso_week(), 52);
        // 2020-12-31 (Thursday) is week 53.
        assert_eq!(Date::new(2020, 12, 31).unwrap().iso_week(), 53);
    }

    #[test]
    fn quarter_and_last_day() {
        assert_eq!(Date::new(2024, 5, 10).unwrap().quarter(), 2);
        assert_eq!(Date::new(2024, 2, 10).unwrap().last_day().to_string(), "2024-02-29");
    }
}
