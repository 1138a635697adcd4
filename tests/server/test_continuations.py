"""Continuation tokens: opaque round trip, loud failure on garbage."""

import base64
import json

import pytest

from repro.server import ContinuationError, decode_token, encode_token
from repro.server.continuations import MAX_TOKEN_BYTES


def test_round_trip():
    state = {"scan": [3, 1, 4], "slice": [2, 5]}
    token = encode_token("SELECT * WHERE { ?s ?p ?o }", 7, state)
    assert isinstance(token, str)
    query, version, restored = decode_token(token)
    assert query == "SELECT * WHERE { ?s ?p ?o }"
    assert version == 7
    assert restored == state


def test_token_is_ascii_and_url_safe():
    token = encode_token("SELECT ?s WHERE { ?s ?p 'é' }", 0, {"kind": "x"})
    token.encode("ascii")
    assert "+" not in token and "/" not in token


def test_identical_state_yields_identical_token():
    token_a = encode_token("q", 3, {"b": 1, "a": 2})
    token_b = encode_token("q", 3, {"a": 2, "b": 1})
    assert token_a == token_b  # sorted keys → canonical bytes


@pytest.mark.parametrize(
    "garbage",
    [
        "",
        "not base64 at all!!!",
        base64.urlsafe_b64encode(b"not json").decode(),
        base64.urlsafe_b64encode(b'["a", "list"]').decode(),
        base64.urlsafe_b64encode(
            json.dumps({"f": 999, "q": "x", "v": 0, "s": {}}).encode()
        ).decode(),
        base64.urlsafe_b64encode(
            json.dumps({"f": 2, "q": "x"}).encode()
        ).decode(),  # missing version/state
        base64.urlsafe_b64encode(
            json.dumps({"f": 2, "q": "x", "v": "NaN", "s": {}}).encode()
        ).decode(),  # wrong field type
        base64.urlsafe_b64encode(
            json.dumps(
                {"f": 1, "q": "x", "v": 0,
                 "s": {"kind": "singleton", "done": False}}
            ).encode()
        ).decode(),  # a well-formed format-1 (buffered-row) token
        base64.urlsafe_b64encode(b"[" * 100_000).decode(),  # nesting bomb
        b"bytes, not text",
        None,
    ],
)
def test_malformed_tokens_raise(garbage):
    with pytest.raises(ContinuationError):
        decode_token(garbage)


def test_truncated_token_raises():
    token = encode_token("q", 1, {"scan": [1, 2, 3]})
    for cut in (len(token) // 2, len(token) - 4, len(token) - 1):
        with pytest.raises(ContinuationError):
            decode_token(token[:cut])


def test_oversized_token_is_rejected_before_decoding(monkeypatch):
    token = encode_token("q", 1, {"scan": [1]})
    padded = token + "=" * (MAX_TOKEN_BYTES + 1 - len(token))

    def no_decoding(*args, **kwargs):
        raise AssertionError("an oversized token was decoded")

    monkeypatch.setattr(base64, "urlsafe_b64decode", no_decoding)
    monkeypatch.setattr(json, "loads", no_decoding)
    with pytest.raises(ContinuationError, match="at most"):
        decode_token(padded)


def test_encode_refuses_to_mint_an_oversized_token():
    keys = [[f'"value-{i:07d}"'] for i in range(60_000)]
    with pytest.raises(ContinuationError, match="DISTINCT"):
        encode_token("q", 1, {"scan": [1], "seen": keys})
    small = encode_token("q", 1, {"scan": [1], "seen": keys[:100]})
    assert len(small) < MAX_TOKEN_BYTES
