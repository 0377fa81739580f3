//! Fixture: wildcard arms over decoded frames — `Ok(_)` beside
//! `Ok(WireMsg::..)` arms, and a bare `_`, over a `Result` scrutinee that
//! clippy's `wildcard_enum_match_arm` skips (analyzed as crate
//! `runtime`). Lexed, never compiled.

fn nested(frame: Result<WireMsg, FrameError>) {
    match frame {
        Ok(WireMsg::Hello { version }) => handle(version),
        Ok(_) => {}
        Err(e) => fail(e),
    }
}

fn bare(frame: Result<WireMsg, FrameError>) {
    match frame {
        Ok(WireMsg::Round(r)) => run(r),
        _ => {}
    }
}
