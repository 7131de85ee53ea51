//! The calculator / command-line interface for deriving variables.
//!
//! The UV-CDAT GUI's bottom-right pane "contains tools for executing data
//! processing and analysis operations on variables using either a
//! command-line or calculator interface" (§III.E). This module implements
//! that interface: a small expression language over the variables of a
//! dataset, evaluated with CDAT operations.
//!
//! ```text
//! ta_c    = ta - 273.15
//! ta_anom = anom(ta)
//! gm      = avg(ta, 'lat', 'lon')
//! speed   = sqrt(ua*ua + va*va)
//! lo      = regrid(ta, 16, 32)
//! cons    = regrid(ta, 16, 32, 'conservative')
//! ta_p    = plev(ta, 850, 500)
//! ```

use crate::{Dv3dError, Result};
use cdat::{averager, climatology, ops, regrid, statistics};
use cdms::axis::AxisKind;
use cdms::{Dataset, RectGrid, Variable};

/// A computed value: a full variable or a scalar.
#[derive(Debug, Clone)]
pub enum CalcValue {
    Variable(Variable),
    Scalar(f64),
}

impl CalcValue {
    /// The variable payload, if any.
    pub fn as_variable(&self) -> Option<&Variable> {
        match self {
            CalcValue::Variable(v) => Some(v),
            _ => None,
        }
    }

    /// The scalar payload, if any.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            CalcValue::Scalar(s) => Some(*s),
            _ => None,
        }
    }
}

// ---- lexer ----

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
    Assign,
}

fn lex(src: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '=' => {
                out.push(Tok::Assign);
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != quote {
                    j += 1;
                }
                if j >= chars.len() {
                    return Err(Dv3dError::Config("unterminated string".into()));
                }
                out.push(Tok::Str(chars[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut j = i;
                while j < chars.len()
                    && (chars[j].is_ascii_digit()
                        || chars[j] == '.'
                        || chars[j] == 'e'
                        || chars[j] == 'E'
                        || ((chars[j] == '+' || chars[j] == '-')
                            && j > start
                            && (chars[j - 1] == 'e' || chars[j - 1] == 'E')))
                {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                let n: f64 = text
                    .parse()
                    .map_err(|_| Dv3dError::Config(format!("bad number '{text}'")))?;
                out.push(Tok::Number(n));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < chars.len()
                    && (chars[j].is_ascii_alphanumeric() || chars[j] == '_')
                {
                    j += 1;
                }
                out.push(Tok::Ident(chars[start..j].iter().collect()));
                i = j;
            }
            other => {
                return Err(Dv3dError::Config(format!("unexpected character '{other}'")))
            }
        }
    }
    Ok(out)
}

// ---- parser / evaluator ----

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    env: &'a Dataset,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_tok(&mut self, t: Tok) -> Result<()> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(Dv3dError::Config(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn expr(&mut self) -> Result<CalcValue> {
        let mut left = self.term()?;
        while let Some(op) = self.peek().cloned() {
            match op {
                Tok::Plus | Tok::Minus => {
                    self.next();
                    let right = self.term()?;
                    left = binary(&left, &right, &op)?;
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<CalcValue> {
        let mut left = self.factor()?;
        while let Some(op) = self.peek().cloned() {
            match op {
                Tok::Star | Tok::Slash => {
                    self.next();
                    let right = self.factor()?;
                    left = binary(&left, &right, &op)?;
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<CalcValue> {
        if self.peek() == Some(&Tok::Minus) {
            self.next();
            let v = self.factor()?;
            return match v {
                CalcValue::Scalar(s) => Ok(CalcValue::Scalar(-s)),
                CalcValue::Variable(var) => {
                    Ok(CalcValue::Variable(ops::mul_scalar(&var, -1.0)?))
                }
            };
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<CalcValue> {
        match self.next() {
            Some(Tok::Number(n)) => Ok(CalcValue::Scalar(n)),
            Some(Tok::LParen) => {
                let v = self.expr()?;
                self.expect_tok(Tok::RParen)?;
                Ok(v)
            }
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.next();
                    self.call(&name)
                } else {
                    let var = self.env.variable(&name).ok_or_else(|| {
                        Dv3dError::Config(format!("unknown variable '{name}'"))
                    })?;
                    Ok(CalcValue::Variable(var.clone()))
                }
            }
            other => Err(Dv3dError::Config(format!("unexpected token {other:?}"))),
        }
    }

    /// Parses a function call's arguments (after the open paren).
    fn call(&mut self, name: &str) -> Result<CalcValue> {
        let mut args: Vec<CalcValue> = Vec::new();
        let mut strings: Vec<String> = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                if let Some(Tok::Str(s)) = self.peek().cloned() {
                    self.next();
                    strings.push(s);
                } else {
                    args.push(self.expr()?);
                }
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.next();
                    }
                    _ => break,
                }
            }
        }
        self.expect_tok(Tok::RParen)?;
        apply_function(name, args, strings)
    }
}

fn axis_kind(name: &str) -> Result<AxisKind> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "time" | "t" => AxisKind::Time,
        "lat" | "latitude" | "y" => AxisKind::Latitude,
        "lon" | "longitude" | "x" => AxisKind::Longitude,
        "lev" | "level" | "plev" => AxisKind::Level,
        other => return Err(Dv3dError::Config(format!("unknown axis '{other}'"))),
    })
}

fn one_var(name: &str, args: &[CalcValue]) -> Result<Variable> {
    match args.first() {
        Some(CalcValue::Variable(v)) if args.len() == 1 => Ok(v.clone()),
        _ => Err(Dv3dError::Config(format!("{name}() wants exactly one variable argument"))),
    }
}

fn apply_function(name: &str, args: Vec<CalcValue>, strings: Vec<String>) -> Result<CalcValue> {
    match name {
        "sqrt" | "abs" | "log" | "exp" => {
            let v = one_var(name, &args)?;
            let f: fn(f32) -> f32 = match name {
                "sqrt" => |x| x.sqrt(),
                "abs" => |x| x.abs(),
                "log" => |x| x.ln(),
                _ => |x| x.exp(),
            };
            Ok(CalcValue::Variable(ops::apply_sync(&v, &format!("{name}_{}", v.id), f)?))
        }
        "anom" => Ok(CalcValue::Variable(climatology::anomaly(&one_var(name, &args)?)?)),
        "trend" => Ok(CalcValue::Variable(statistics::linear_trend(&one_var(name, &args)?)?)),
        "stdz" => Ok(CalcValue::Variable(statistics::standardize(&one_var(name, &args)?)?)),
        "avg" => {
            let v = one_var(name, &args)?;
            if strings.is_empty() {
                return Err(Dv3dError::Config(
                    "avg() wants axis names, e.g. avg(ta, 'time')".into(),
                ));
            }
            let kinds: Vec<AxisKind> =
                strings.iter().map(|s| axis_kind(s)).collect::<Result<_>>()?;
            Ok(CalcValue::Variable(averager::average_over_kinds(&v, &kinds)?))
        }
        "regrid" => {
            use CalcValue::{Scalar, Variable};
            let [Variable(v), Scalar(nlat), Scalar(nlon)] = args.as_slice() else {
                return Err(Dv3dError::Config(
                    "regrid(x, nlat, nlon) wants a variable and two numbers".into(),
                ));
            };
            // a typed size is outside input like a workflow parameter: same ceiling
            let axis_len = |n: f64| {
                let in_range = (1.0..=crate::modules::MAX_AXIS_LEN as f64).contains(&n);
                in_range.then_some(n as usize).ok_or_else(|| {
                    Dv3dError::Config(format!("regrid(): an axis of {n} points is out of range"))
                })
            };
            let grid = RectGrid::uniform(axis_len(*nlat)?, axis_len(*nlon)?)?;
            // optional method string: regrid(x, nlat, nlon, 'conservative')
            let method = match strings.first() {
                None => cdat::regrid_plan::RegridMethod::Bilinear,
                Some(s) => cdat::regrid_plan::RegridMethod::parse(s).ok_or_else(|| {
                    Dv3dError::Config(format!(
                        "regrid(): unknown method '{s}' (try 'bilinear' or 'conservative')"
                    ))
                })?,
            };
            Ok(CalcValue::Variable(regrid::regrid(v, &grid, method)?))
        }
        "plev" => {
            let Some((CalcValue::Variable(v), levels)) = args.split_first() else {
                return Err(Dv3dError::Config(
                    "plev(x, p1, p2, ...) wants a variable, then pressure levels".into(),
                ));
            };
            let levels: Vec<f64> = levels
                .iter()
                .map(|l| {
                    l.as_scalar().ok_or_else(|| {
                        Dv3dError::Config("plev(): every level must be a number".into())
                    })
                })
                .collect::<Result<_>>()?;
            Ok(CalcValue::Variable(regrid::pressure_interp(v, &levels)?))
        }
        "corr" => {
            let (a, b) = match (args.first(), args.get(1)) {
                (Some(CalcValue::Variable(a)), Some(CalcValue::Variable(b))) => (a, b),
                _ => {
                    return Err(Dv3dError::Config("corr(a, b) wants two variables".into()))
                }
            };
            Ok(CalcValue::Scalar(statistics::correlation(a, b)?))
        }
        other => Err(Dv3dError::Config(format!("unknown function '{other}'"))),
    }
}

fn binary(left: &CalcValue, right: &CalcValue, op: &Tok) -> Result<CalcValue> {
    use CalcValue::*;
    Ok(match (left, right) {
        (Scalar(a), Scalar(b)) => Scalar(match op {
            Tok::Plus => a + b,
            Tok::Minus => a - b,
            Tok::Star => a * b,
            Tok::Slash => a / b,
            _ => return Err(Dv3dError::Config(format!("'{op:?}' is not a binary operator"))),
        }),
        (Variable(a), Variable(b)) => Variable(match op {
            Tok::Plus => ops::add(a, b)?,
            Tok::Minus => ops::sub(a, b)?,
            Tok::Star => ops::mul(a, b)?,
            Tok::Slash => ops::div(a, b)?,
            _ => return Err(Dv3dError::Config(format!("'{op:?}' is not a binary operator"))),
        }),
        (Variable(a), Scalar(s)) => Variable(match op {
            Tok::Plus => ops::add_scalar(a, *s as f32)?,
            Tok::Minus => ops::add_scalar(a, -*s as f32)?,
            Tok::Star => ops::mul_scalar(a, *s as f32)?,
            Tok::Slash => ops::mul_scalar(a, 1.0 / *s as f32)?,
            _ => return Err(Dv3dError::Config(format!("'{op:?}' is not a binary operator"))),
        }),
        (Scalar(s), Variable(b)) => Variable(match op {
            Tok::Plus => ops::add_scalar(b, *s as f32)?,
            Tok::Star => ops::mul_scalar(b, *s as f32)?,
            Tok::Minus => ops::add_scalar(&ops::mul_scalar(b, -1.0)?, *s as f32)?,
            Tok::Slash => {
                let inv = ops::apply_sync(b, &b.id, |x| 1.0 / x)?;
                ops::mul_scalar(&inv, *s as f32)?
            }
            _ => return Err(Dv3dError::Config(format!("'{op:?}' is not a binary operator"))),
        }),
    })
}

/// Evaluates a single statement against a dataset. `name = expr` stores the
/// result into the dataset under `name`; a bare expression just returns.
/// Returns the computed value either way.
pub fn evaluate(dataset: &mut Dataset, statement: &str) -> Result<CalcValue> {
    let toks = lex(statement)?;
    if toks.is_empty() {
        return Err(Dv3dError::Config("empty statement".into()));
    }
    // detect `ident = …`
    let (target, expr_toks) = match (&toks[0], toks.get(1)) {
        (Tok::Ident(name), Some(Tok::Assign)) => (Some(name.clone()), toks[2..].to_vec()),
        _ => (None, toks),
    };
    let mut p = Parser { toks: expr_toks, pos: 0, env: dataset };
    let value = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(Dv3dError::Config(format!(
            "trailing tokens after expression: {:?}",
            &p.toks[p.pos..]
        )));
    }
    if let Some(name) = target {
        match &value {
            CalcValue::Variable(v) => {
                let mut named = v.clone();
                named.id = name;
                dataset.add_variable(named);
            }
            CalcValue::Scalar(_) => {
                return Err(Dv3dError::Config(
                    "cannot store a scalar as a dataset variable".into(),
                ))
            }
        }
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::synth::SynthesisSpec;

    fn ds() -> Dataset {
        SynthesisSpec::new(4, 2, 8, 16).build()
    }

    #[test]
    fn scalar_arithmetic() {
        let mut d = ds();
        assert_eq!(evaluate(&mut d, "2 + 3 * 4").unwrap().as_scalar(), Some(14.0));
        assert_eq!(evaluate(&mut d, "(2 + 3) * 4").unwrap().as_scalar(), Some(20.0));
        assert_eq!(evaluate(&mut d, "-2 + 1").unwrap().as_scalar(), Some(-1.0));
        assert_eq!(evaluate(&mut d, "1e2 / 4").unwrap().as_scalar(), Some(25.0));
    }

    #[test]
    fn variable_scalar_ops() {
        let mut d = ds();
        let v = evaluate(&mut d, "ta - 273.15").unwrap();
        let var = v.as_variable().unwrap();
        let orig = d.variable("ta").unwrap().array.mean().unwrap();
        assert!((var.array.mean().unwrap() - (orig - 273.15)).abs() < 1e-3);
    }

    #[test]
    fn variable_variable_ops_and_assignment() {
        let mut d = ds();
        evaluate(&mut d, "speed = sqrt(ua*ua + va*va)").unwrap();
        let speed = d.variable("speed").unwrap();
        assert_eq!(speed.shape(), d.variable("ua").unwrap().shape());
        let (lo, _) = speed.array.min_max().unwrap();
        assert!(lo >= 0.0);
    }

    #[test]
    fn functions_work() {
        let mut d = ds();
        evaluate(&mut d, "a = anom(ta)").unwrap();
        assert!(d.variable("a").unwrap().array.mean().unwrap().abs() < 0.5);
        let gm = evaluate(&mut d, "avg(ta, 'lat', 'lon')").unwrap();
        assert_eq!(gm.as_variable().unwrap().shape(), &[4, 2]);
        let lo = evaluate(&mut d, "regrid(ta, 4, 8)").unwrap();
        assert_eq!(&lo.as_variable().unwrap().shape()[2..], &[4, 8]);
        let cons = evaluate(&mut d, "regrid(ta, 4, 8, 'conservative')").unwrap();
        assert_eq!(&cons.as_variable().unwrap().shape()[2..], &[4, 8]);
        assert!(evaluate(&mut d, "regrid(ta, 4, 8, 'cubic')").is_err());
        let r = evaluate(&mut d, "corr(ta, ta)").unwrap();
        assert!((r.as_scalar().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn avg_takes_the_time_mean_and_collapses_every_axis() {
        let mut d = ds();
        let tm = evaluate(&mut d, "avg(ta, 'time')").unwrap();
        assert_eq!(tm.as_variable().unwrap().shape(), &[2, 8, 16]);
        let all = evaluate(&mut d, "avg(ta, 'time', 'lev', 'lat', 'lon')").unwrap();
        assert_eq!(all.as_variable().unwrap().array.len(), 1);
    }

    #[test]
    fn plev_is_the_direct_vertical_interpolation_bit_for_bit() {
        let mut d = SynthesisSpec::new(2, 6, 8, 16).build();
        // 962 and 550 hPa fall between levels; 1100 hPa is below the
        // column, so its level comes back masked
        let direct =
            regrid::pressure_interp(d.variable("ta").unwrap(), &[1100.0, 962.0, 550.0]).unwrap();
        let got = evaluate(&mut d, "plev(ta, 1100, 962, 550)").unwrap();
        let got = got.as_variable().unwrap();
        assert_eq!(got.shape(), direct.shape());
        let bits = |v: &Variable| v.array.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(&direct));
        assert_eq!(got.array.mask(), direct.array.mask());
        assert!(got.array.mask().iter().any(|&m| m));
        assert_eq!(got.axes, direct.axes);
    }

    #[test]
    fn plev_refuses_a_variable_without_a_level_axis() {
        let mut d = ds();
        assert!(d.variable("tos").unwrap().axis_index(AxisKind::Level).is_none());
        let err = evaluate(&mut d, "plev(tos, 500)").unwrap_err().to_string();
        assert!(err.contains("level axis on 'tos'"), "{err}");
    }

    #[test]
    fn plev_refuses_an_empty_level_list_and_a_missing_variable() {
        let mut d = ds();
        let err = evaluate(&mut d, "plev(ta)").unwrap_err().to_string();
        assert!(err.contains("no target levels"), "{err}");
        let err = evaluate(&mut d, "plev(500, 850)").unwrap_err().to_string();
        assert!(err.contains("wants a variable, then pressure levels"), "{err}");
    }

    #[test]
    fn chained_statements_build_on_each_other() {
        let mut d = ds();
        evaluate(&mut d, "ta_c = ta - 273.15").unwrap();
        evaluate(&mut d, "warm = ta_c + 5").unwrap();
        let diff = evaluate(&mut d, "warm - ta_c").unwrap();
        let m = diff.as_variable().unwrap().array.mean().unwrap();
        assert!((m - 5.0).abs() < 1e-4);
    }

    #[test]
    fn error_cases() {
        let mut d = ds();
        assert!(evaluate(&mut d, "").is_err());
        assert!(evaluate(&mut d, "nope + 1").is_err());
        assert!(evaluate(&mut d, "ta + ").is_err());
        assert!(evaluate(&mut d, "ta ta").is_err());
        assert!(evaluate(&mut d, "foo(ta)").is_err());
        assert!(evaluate(&mut d, "avg(ta)").is_err());
        assert!(evaluate(&mut d, "avg(ta, 'bogus')").is_err());
        assert!(evaluate(&mut d, "x = 3").is_err()); // scalars not storable
        assert!(evaluate(&mut d, "'unterminated").is_err());
        assert!(evaluate(&mut d, "ta $ 2").is_err());
        assert!(evaluate(&mut d, "regrid(ta, 4)").is_err());
        // sizes a user can type: none panics or allocates
        for typed in ["regrid()", "regrid(ta, 1e18, 2)", "regrid(ta, 0 - 1, 2)", "regrid(4, 4, 8)"] {
            assert!(evaluate(&mut d, typed).is_err(), "{typed}");
        }
        assert!(evaluate(&mut d, "corr(ta, 3)").is_err());
    }

    #[test]
    fn scalar_minus_variable() {
        let mut d = ds();
        let v = evaluate(&mut d, "300 - ta").unwrap();
        let var = v.as_variable().unwrap();
        let orig = d.variable("ta").unwrap().array.mean().unwrap();
        assert!((var.array.mean().unwrap() - (300.0 - orig)).abs() < 1e-3);
    }

    #[test]
    fn shape_mismatch_reported() {
        let mut d = ds();
        evaluate(&mut d, "lo = regrid(ta, 4, 8)").unwrap();
        assert!(evaluate(&mut d, "ta + lo").is_err());
    }
}
