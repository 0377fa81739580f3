//! Fixture: frame-protocol counterpart of `frame_protocol_bad.rs` —
//! every frame arm named, and wildcards only in matches that name no
//! `WireMsg` (analyzed as crate `runtime`). Lexed, never compiled.

fn dispatch(frame: Result<WireMsg, FrameError>) {
    match frame {
        Ok(WireMsg::Hello { version }) => handle(version),
        Ok(WireMsg::Round(r)) => run(r),
        Ok(WireMsg::Report { body }) => record(body),
        Err(e) => fail(e),
    }
}

fn decode(tag: u8) -> bool {
    match tag {
        1..=3 => true,
        other => unknown(other),
    }
}
