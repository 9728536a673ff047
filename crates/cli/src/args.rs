//! Minimal dependency-free argument parsing for `ldpc-tool`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option was given without a value.
    MissingValue(String),
    /// An option value failed to parse.
    InvalidValue {
        /// Option name.
        option: String,
        /// Raw value.
        value: String,
    },
    /// Unexpected positional argument.
    UnexpectedPositional(String),
    /// The subcommand does not exist.
    UnknownCommand(String),
    /// The subcommand has no such option.
    UnknownOption {
        /// The subcommand.
        command: String,
        /// Option name.
        option: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingCommand => write!(f, "missing subcommand (try `ldpc-tool help`)"),
            Self::MissingValue(opt) => write!(f, "option --{opt} expects a value"),
            Self::InvalidValue { option, value } => {
                write!(f, "invalid value {value:?} for --{option}")
            }
            Self::UnexpectedPositional(arg) => write!(f, "unexpected argument {arg:?}"),
            Self::UnknownCommand(command) => {
                write!(f, "unknown command {command:?} (try `ldpc-tool help`)")
            }
            Self::UnknownOption { command, option } => {
                write!(f, "unknown option --{option} for {command}")?;
                let owners: Vec<&str> = COMMANDS
                    .iter()
                    .filter(|(_, values, flags)| {
                        values.contains(&option.as_str()) || flags.contains(&option.as_str())
                    })
                    .map(|(name, ..)| *name)
                    .collect();
                if !owners.is_empty() {
                    write!(f, " (an option of {})", owners.join(", "))?;
                }
                let accepted: Vec<String> = COMMANDS
                    .iter()
                    .filter(|(name, ..)| name == command)
                    .flat_map(|(_, values, flags)| values.iter().chain(flags.iter()))
                    .map(|name| format!("--{name}"))
                    .collect();
                if accepted.is_empty() {
                    write!(f, "; {command} takes no options")
                } else {
                    write!(f, "; {command} accepts {}", accepted.join(", "))
                }
            }
        }
    }
}

impl Error for ArgError {}

/// Every subcommand with the options that take a value and the boolean
/// flags it accepts. `--help` / `-h` is accepted everywhere; anything
/// else is rejected by name, so a typo never silently runs the default.
const COMMANDS: &[(&str, &[&str], &[&str])] = &[
    ("help", &[], &[]),
    ("info", &[], &[]),
    ("encode", &["seed"], &["random", "zeros"]),
    (
        "simulate",
        &[
            "code", "channel", "decoder", "ebn0", "frames", "iters", "seed",
        ],
        &["demo", "c2"],
    ),
    (
        "sweep",
        &[
            "codes",
            "channels",
            "decoders",
            "ebn0s",
            "ebn0",
            "frames",
            "iters",
            "threads",
            "seed",
            "target-errors",
            "chunk-frames",
            "cache-dir",
            "json",
        ],
        &["demo", "c2", "adaptive", "resume"],
    ),
    (
        "serve",
        &[
            "port",
            "addr",
            "max-wait-us",
            "workers",
            "iters",
            "queue-frames",
        ],
        &[],
    ),
    ("plan", &["mbps", "iters", "clock"], &[]),
    ("tables", &[], &[]),
];

impl ParsedArgs {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut it = args.into_iter().peekable();
        let mut command = it.next().ok_or(ArgError::MissingCommand)?;
        if command == "--help" || command == "-h" {
            command = "help".to_owned();
        }
        if command.starts_with('-') {
            return Err(ArgError::MissingCommand);
        }
        let Some(&(_, values, boolean)) = COMMANDS.iter().find(|(name, ..)| *name == command)
        else {
            return Err(ArgError::UnknownCommand(command));
        };
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = it.next() {
            if arg == "-h" {
                flags.push("help".to_owned());
            } else if let Some(name) = arg.strip_prefix("--") {
                if name == "help" || boolean.contains(&name) {
                    flags.push(name.to_owned());
                } else if values.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(name.to_owned()))?;
                    options.insert(name.to_owned(), value);
                } else {
                    return Err(ArgError::UnknownOption {
                        command,
                        option: name.to_owned(),
                    });
                }
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(Self {
            command,
            options,
            flags,
        })
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] if present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::InvalidValue {
                option: name.to_owned(),
                value: raw.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["simulate", "--ebn0", "4.0", "--demo", "--frames", "10"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("ebn0"), Some("4.0"));
        assert!(a.flag("demo"));
        assert!(!a.flag("c2"));
        assert_eq!(a.get_or("frames", 0u64).unwrap(), 10);
        assert_eq!(a.get_or("iters", 18u32).unwrap(), 18); // default
    }

    #[test]
    fn help_flag_maps_to_help_command() {
        assert_eq!(parse(&["--help"]).unwrap().command, "help");
        assert_eq!(parse(&["-h"]).unwrap().command, "help");
        // After a subcommand, both spellings surface as the `help` flag.
        assert!(parse(&["simulate", "--help"]).unwrap().flag("help"));
        assert!(parse(&["simulate", "-h"]).unwrap().flag("help"));
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["--ebn0", "4"]).unwrap_err(),
            ArgError::MissingCommand
        );
    }

    #[test]
    fn missing_value_rejected() {
        assert_eq!(
            parse(&["simulate", "--ebn0"]).unwrap_err(),
            ArgError::MissingValue("ebn0".into())
        );
    }

    #[test]
    fn invalid_value_rejected() {
        let a = parse(&["simulate", "--ebn0", "four"]).unwrap();
        assert!(matches!(
            a.get_or("ebn0", 0.0f64).unwrap_err(),
            ArgError::InvalidValue { .. }
        ));
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(matches!(
            parse(&["simulate", "oops"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn errors_display_cleanly() {
        for e in [
            ArgError::MissingCommand,
            ArgError::MissingValue("x".into()),
            ArgError::InvalidValue {
                option: "x".into(),
                value: "y".into(),
            },
            ArgError::UnexpectedPositional("z".into()),
            ArgError::UnknownCommand("w".into()),
            ArgError::UnknownOption {
                command: "info".into(),
                option: "v".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
