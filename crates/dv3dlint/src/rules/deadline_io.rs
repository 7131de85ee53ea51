//! R3 `deadline_io`: in the `hyperwall` crate, protocol exchanges outside
//! the protocol module itself must use the deadline-aware variants
//! (`read_message_deadline` / `write_message_deadline`) introduced by the
//! fault-tolerance work — a raw blocking `read_message`/`write_message`
//! can wedge a wall node forever on a silent peer. Test code is exempt
//! (tests drive both half-duplex ends by hand). Escape hatch:
//! `// dv3dlint: allow(deadline_io) -- <why blocking is the design>`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::workspace::{CrateModel, Workspace};

/// The raw blocking protocol primitives.
const BANNED_CALLS: &[&str] = &["read_message", "write_message"];

#[derive(Debug)]
pub struct DeadlineIo;

impl Rule for DeadlineIo {
    fn id(&self) -> &'static str {
        "deadline_io"
    }

    fn describe(&self) -> &'static str {
        "hyperwall exchanges outside the protocol module must use _deadline I/O variants"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        _ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.deadline_enabled || !krate.in_scope(std::slice::from_ref(&cfg.deadline_crate)) {
            return;
        }
        for file in &krate.files {
            let path = file.path.as_os_str().to_string_lossy().to_string();
            if cfg.protocol_modules.iter().any(|m| path.ends_with(m)) {
                continue; // the raw primitives live here by design
            }
            let toks = &file.lexed.tokens;
            for i in 0..toks.len() {
                let Tok::Ident(name) = &toks[i].tok else { continue };
                if !BANNED_CALLS.contains(&name.as_str()) {
                    continue;
                }
                // call sites only: `read_message(`; imports / doc links and
                // the _deadline variants are distinct tokens
                if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                    continue;
                }
                let line = toks[i].line;
                if file.is_test_line(line) {
                    continue;
                }
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line,
                    rule: self.id(),
                    message: format!(
                        "raw `{name}(…)` outside the protocol module: use \
                         `{name}_deadline(…)` so a silent peer cannot wedge this node"
                    ),
                    hint: Some(format!("replace with `{name}_deadline(stream, deadline, …)`")),
                    suppressed: file.is_allowed(self.id(), line),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::{cfg, lines, run_on};

    const FIXTURE: &str = r#"
use crate::protocol::{read_message, write_message, read_message_deadline};

pub fn handshake(stream: &mut TcpStream) -> Result<()> {
    write_message(stream, &Message::Hello { client_id: 0 })?;
    let reply = read_message(stream)?;
    let ok = read_message_deadline(stream, DEADLINE, "Ready")?;
    drop((reply, ok));
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let m = read_message(&mut cursor).unwrap();
        write_message(&mut cursor, &m).unwrap();
    }
}
"#;

    #[test]
    fn raw_calls_flagged_deadline_variants_and_imports_not() {
        let diags =
            run_on(&DeadlineIo, "hyperwall", "crates/hyperwall/src/client.rs", FIXTURE, &cfg());
        assert_eq!(lines(&diags), vec![5, 6], "{diags:?}");
    }

    #[test]
    fn protocol_module_is_exempt() {
        let diags =
            run_on(&DeadlineIo, "hyperwall", "crates/hyperwall/src/protocol.rs", FIXTURE, &cfg());
        assert!(diags.is_empty());
    }

    /// The wall's node modules are ordinary I/O consumers, not part of
    /// the protocol module — raw exchanges there are flagged too.
    #[test]
    fn wall_node_modules_are_covered() {
        for file in ["crates/hyperwall/src/server.rs", "crates/hyperwall/src/client.rs"] {
            let diags = run_on(&DeadlineIo, "hyperwall", file, FIXTURE, &cfg());
            assert_eq!(lines(&diags), vec![5, 6], "{file}: {diags:?}");
        }
    }

    /// Config may exempt several modules; each listed suffix is honored.
    #[test]
    fn multiple_protocol_modules_all_exempt() {
        let mut c = cfg();
        c.protocol_modules = vec![
            "crates/hyperwall/src/protocol.rs".into(),
            "crates/hyperwall/src/service/raw_io.rs".into(),
        ];
        for file in
            ["crates/hyperwall/src/protocol.rs", "crates/hyperwall/src/service/raw_io.rs"]
        {
            let diags = run_on(&DeadlineIo, "hyperwall", file, FIXTURE, &c);
            assert!(diags.is_empty(), "{file}: {diags:?}");
        }
        let diags =
            run_on(&DeadlineIo, "hyperwall", "crates/hyperwall/src/service/server.rs", FIXTURE, &c);
        assert_eq!(lines(&diags), vec![5, 6]);
    }

    #[test]
    fn other_crates_are_exempt() {
        let diags = run_on(&DeadlineIo, "cdms", "crates/cdms/src/lib.rs", FIXTURE, &cfg());
        assert!(diags.is_empty());
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "\
pub fn idle_loop(s: &mut TcpStream) -> Result<Message> {
    // dv3dlint: allow(deadline_io) -- reads run in bounded slices, see next_command
    read_message(s)
}
";
        let diags = run_on(&DeadlineIo, "hyperwall", "crates/hyperwall/src/x.rs", src, &cfg());
        assert_eq!(lines(&diags), Vec::<u32>::new());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed);
    }
}
